package expt

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// The claims EXPERIMENTS.md makes about E1, E5, E6, E9, E10, E14, E16,
// E17, E19 and E21, and its headline claim 3, checked against the
// committed seed-42 tables in results/. Each ordering, trend, ratio range
// and quoted number is one assertion that names its table and tolerance:
// a quoted number must lie within half a unit of its last quoted digit,
// and orderings and trends have no slack. A change that moves one of
// these tables must keep its claims passing, or rewrite the claim here
// and in EXPERIMENTS.md together.

// resultTable is one committed CSV of results/.
type resultTable struct {
	name   string
	header []string
	rows   [][]string
}

func readResult(t *testing.T, name string) resultTable {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(recs) < 2 {
		t.Fatalf("%s: no rows", name)
	}
	return resultTable{name: name, header: recs[0], rows: recs[1:]}
}

func (r resultTable) col(t *testing.T, name string) int {
	t.Helper()
	i := slices.Index(r.header, name)
	if i < 0 {
		t.Fatalf("%s: no column %q in %v", r.name, name, r.header)
	}
	return i
}

func (r resultTable) num(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("%s: cell %q is not a number", r.name, cell)
	}
	return v
}

// cell returns column col of the row whose leading cells are key.
func (r resultTable) cell(t *testing.T, col string, key ...string) string {
	t.Helper()
	ci := r.col(t, col)
	for _, row := range r.rows {
		if slices.Equal(row[:len(key)], key) {
			return row[ci]
		}
	}
	t.Fatalf("%s: no row %v", r.name, key)
	return ""
}

// at is cell as a number.
func (r resultTable) at(t *testing.T, col string, key ...string) float64 {
	t.Helper()
	return r.num(t, r.cell(t, col, key...))
}

// column returns every row's number in column col.
func (r resultTable) column(t *testing.T, col string) []float64 {
	t.Helper()
	ci := r.col(t, col)
	out := make([]float64, len(r.rows))
	for i, row := range r.rows {
		out[i] = r.num(t, row[ci])
	}
	return out
}

// quoted checks a number EXPERIMENTS.md quotes.
func quoted(t *testing.T, table, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol+1e-12 {
		t.Errorf("%s: %s reads %v; EXPERIMENTS.md says %v (tolerance %v)", table, what, got, want, tol)
	}
}

// holds checks an ordering or a trend, which has no tolerance.
func holds(t *testing.T, table, claim string, ok bool, got ...any) {
	t.Helper()
	if !ok {
		t.Errorf("%s: %s fails (tolerance 0): %v", table, claim, got)
	}
}

func increasing(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxDev(xs []float64) float64 {
	m, d := mean(xs), 0.0
	for _, x := range xs {
		d = math.Max(d, math.Abs(x-m))
	}
	return d
}

var bothPresets = []string{"reality-like", "infocom-like"}

// e2FourHours returns E2's R = 4 h row for a preset, by scheme.
func e2FourHours(t *testing.T, preset string) map[string]string {
	t.Helper()
	tb := readResult(t, map[string]string{"reality-like": "e2_0.csv", "infocom-like": "e2_1.csv"}[preset])
	out := map[string]string{}
	for _, name := range tb.header[1:] {
		out[name] = tb.cell(t, name, "4")
	}
	return out
}

func TestClaimsE1(t *testing.T) {
	tb := readResult(t, "e1_0.csv")
	const name = "e1_0.csv"
	for _, q := range []struct {
		preset, col string
		want, tol   float64
	}{
		{"reality-like", "nodes", 97, 0},
		{"infocom-like", "nodes", 78, 0},
		{"reality-like", "hours", 720, 0},
		{"infocom-like", "hours", 96, 0},
		{"reality-like", "contacts", 102894, 0},
		{"infocom-like", "contacts", 67893, 0},
		{"reality-like", "pairCoverage", 0.48, 0.005},
		{"infocom-like", "pairCoverage", 0.87, 0.005},
		{"reality-like", "contacts/pair", 46.3, 0.05},
		{"infocom-like", "contacts/pair", 26.0, 0.05},
	} {
		quoted(t, name, q.preset+" "+q.col, tb.at(t, q.col, q.preset), q.want, q.tol)
	}
	r, i := func(col string) float64 { return tb.at(t, col, "reality-like") }, func(col string) float64 { return tb.at(t, col, "infocom-like") }
	holds(t, name, "reality-like has more nodes and a longer span", r("nodes") > i("nodes") && r("hours") > i("hours"))
	holds(t, name, "reality-like's pair coverage is sparse (< 0.5), infocom-like's dense (> 0.85)",
		r("pairCoverage") < 0.5 && i("pairCoverage") > 0.85, r("pairCoverage"), i("pairCoverage"))
}

func TestClaimsE5(t *testing.T) {
	tb := readResult(t, "e5_0.csv")
	const name = "e5_0.csv"
	for _, q := range []struct {
		preset, scheme          string
		tx, txTol, share, fresh float64
	}{
		{"reality-like", "direct", 0.941, 0.0005, 1, 0.075},
		{"reality-like", "hierarchical", 9.88, 0.005, 0.33, 0.163},
		{"reality-like", "epidemic", 79.2, 0.05, 0.10, 0.468},
		{"infocom-like", "direct", 3.73, 0.005, 1, 0.297},
		{"infocom-like", "hierarchical", 9.86, 0.005, 0.20, 0.581},
		{"infocom-like", "epidemic", 66.0, 0.05, 0.12, 0.726},
	} {
		what := q.preset + " " + q.scheme + " "
		quoted(t, name, what+"tx/version", tb.at(t, "tx/version", q.preset, q.scheme), q.tx, q.txTol)
		quoted(t, name, what+"sourceTxShare", tb.at(t, "sourceTxShare", q.preset, q.scheme), q.share, 0.005)
		quoted(t, name, what+"freshness", tb.at(t, "freshness", q.preset, q.scheme), q.fresh, 0.0005)
	}
	var ratios []float64
	for _, p := range bothPresets {
		for _, col := range []string{"tx/version", "freshness"} {
			d, h, e := tb.at(t, col, p, "direct"), tb.at(t, col, p, "hierarchical"), tb.at(t, col, p, "epidemic")
			holds(t, name, p+" "+col+": direct < hierarchical < epidemic", d < h && h < e, d, h, e)
		}
		holds(t, name, p+": hierarchical moves load off the sources",
			tb.at(t, "sourceTxShare", p, "hierarchical") < tb.at(t, "sourceTxShare", p, "direct"))
		ratios = append(ratios, tb.at(t, "tx/version", p, "epidemic")/tb.at(t, "tx/version", p, "hierarchical"))
	}
	quoted(t, name, "smallest epidemic/hierarchical tx/version ratio", slices.Min(ratios), 6.7, 0.05)
	quoted(t, name, "largest epidemic/hierarchical tx/version ratio", slices.Max(ratios), 8.0, 0.05)
	for _, q := range []struct {
		preset string
		share  float64
	}{{"reality-like", 0.35}, {"infocom-like", 0.80}} {
		quoted(t, name, q.preset+" hierarchical freshness as a share of epidemic's",
			tb.at(t, "freshness", q.preset, "hierarchical")/tb.at(t, "freshness", q.preset, "epidemic"), q.share, 0.005)
	}
}

func TestClaimsE6(t *testing.T) {
	for _, q := range []struct {
		file   string
		atOne  float64
		tolOne float64
	}{{"e6_0.csv", 0.70, 0.005}, {"e6_1.csv", 0.986, 0.0005}} {
		tb := readResult(t, q.file)
		quoted(t, q.file, "hierarchical's CDF at one window", tb.at(t, "hierarchical", "1"), q.atOne, q.tolOne)
		for _, s := range tb.header[1:] {
			holds(t, q.file, s+" reaches 1 by 3 windows", tb.at(t, s, "3") == 1, tb.at(t, s, "3"))
			if q.file == "e6_0.csv" && s == "epidemic" {
				continue
			}
			holds(t, q.file, s+" reaches 1 by 2 windows", tb.at(t, s, "2") == 1, tb.at(t, s, "2"))
		}
	}
	tb := readResult(t, "e6_0.csv")
	quoted(t, "e6_0.csv", "epidemic's CDF at 2 windows", tb.at(t, "epidemic", "2"), 0.966, 0.0005)
	h, n := tb.at(t, "hierarchical", "0.25"), tb.at(t, "hierarchical-norep", "0.25")
	holds(t, "e6_0.csv", "hierarchical's CDF starts below hierarchical-norep's", h < n, h, n)

	e5 := readResult(t, "e5_0.csv")
	hTx, nTx := e5.at(t, "refreshTx", "reality-like", "hierarchical"), e5.at(t, "refreshTx", "reality-like", "hierarchical-norep")
	quoted(t, "e5_0.csv", "reality-like hierarchical refreshTx", hTx, 2362, 0)
	quoted(t, "e5_0.csv", "reality-like hierarchical-norep refreshTx", nTx, 983, 0)
}

func TestClaimsE9(t *testing.T) {
	tb := readResult(t, "e9_0.csv")
	const name = "e9_0.csv"
	const info = "infocom-like"
	for _, q := range []struct {
		scheme                         string
		fresh, tx, txTol, share, delay float64
	}{
		{"direct", 0.297, 3.73, 0.005, 1, 1.34},
		{"direct-rep", 0.555, 11.9, 0.05, 0.67, 1.17},
		{"hierarchical-norep", 0.510, 6.43, 0.005, 0.23, 1.36},
		{"hierarchical", 0.581, 9.86, 0.005, 0.20, 1.12},
	} {
		what := info + " " + q.scheme + " "
		quoted(t, name, what+"freshness", tb.at(t, "freshness", info, q.scheme), q.fresh, 0.0005)
		quoted(t, name, what+"tx/version", tb.at(t, "tx/version", info, q.scheme), q.tx, q.txTol)
		quoted(t, name, what+"sourceTxShare", tb.at(t, "sourceTxShare", info, q.scheme), q.share, 0.005)
		quoted(t, name, what+"meanDelay(h)", tb.at(t, "meanDelay(h)", info, q.scheme), q.delay, 0.005)
	}
	f := func(p, s string) float64 { return tb.at(t, "freshness", p, s) }
	share := func(p, s string) float64 { return tb.at(t, "sourceTxShare", p, s) }
	// The two levers, each alone, over direct.
	for _, q := range []struct {
		preset         string
		rep, hier, tol float64
	}{
		{"reality-like", 0.076, 0.020, 0.0005},
		{"infocom-like", 0.26, 0.21, 0.005},
	} {
		rep, hier := f(q.preset, "direct-rep")-f(q.preset, "direct"), f(q.preset, "hierarchical-norep")-f(q.preset, "direct")
		quoted(t, name, q.preset+" replication's freshness gain over direct", rep, q.rep, q.tol)
		quoted(t, name, q.preset+" the hierarchy's freshness gain over direct", hier, q.hier, q.tol)
		holds(t, name, q.preset+": replication is the larger freshness lever", rep > hier, rep, hier)
	}
	quoted(t, name, "reality-like hierarchical-norep sourceTxShare", share("reality-like", "hierarchical-norep"), 0.58, 0.005)
	for _, p := range bothPresets {
		for _, s := range []string{"direct", "direct-rep", "hierarchical-norep"} {
			holds(t, name, p+": hierarchical's freshness beats "+s, f(p, "hierarchical") > f(p, s))
		}
	}
	for _, q := range []struct {
		preset string
		ratio  float64
	}{{"reality-like", 2.3}, {"infocom-like", 3.3}} {
		quoted(t, name, q.preset+" direct-rep/hierarchical sourceTxShare",
			share(q.preset, "direct-rep")/share(q.preset, "hierarchical"), q.ratio, 0.05)
	}
}

// TestClaimsHeadline3 checks headline claim 3, distribution of refresh
// responsibility, on E9's table.
func TestClaimsHeadline3(t *testing.T) {
	tb := readResult(t, "e9_0.csv")
	const name = "e9_0.csv"
	var rep, hier []float64
	for _, p := range bothPresets {
		quoted(t, name, p+" direct sourceTxShare", tb.at(t, "sourceTxShare", p, "direct"), 1, 0)
		rep = append(rep, tb.at(t, "sourceTxShare", p, "direct-rep"))
		hier = append(hier, tb.at(t, "sourceTxShare", p, "hierarchical"))
	}
	quoted(t, name, "lowest direct-rep sourceTxShare", slices.Min(rep), 0.67, 0.005)
	quoted(t, name, "highest direct-rep sourceTxShare", slices.Max(rep), 0.75, 0.005)
	quoted(t, name, "lowest hierarchical sourceTxShare", slices.Min(hier), 0.20, 0.005)
	quoted(t, name, "highest hierarchical sourceTxShare", slices.Max(hier), 0.33, 0.005)
	for _, q := range []struct {
		preset    string
		hier, rep float64
	}{{"reality-like", 0.163, 0.152}, {"infocom-like", 0.581, 0.555}} {
		h, r := tb.at(t, "freshness", q.preset, "hierarchical"), tb.at(t, "freshness", q.preset, "direct-rep")
		quoted(t, name, q.preset+" hierarchical freshness", h, q.hier, 0.0005)
		quoted(t, name, q.preset+" direct-rep freshness", r, q.rep, 0.0005)
		holds(t, name, q.preset+": hierarchical beats direct-rep on freshness", h > r, h, r)
	}
}

func TestClaimsE10(t *testing.T) {
	tb := readResult(t, "e10_0.csv")
	const name = "e10_0.csv"
	tx, fresh := tb.column(t, "tx/version"), tb.column(t, "freshness")
	quoted(t, name, "lowest tx/version", slices.Min(tx), 10.0, 0.05)
	quoted(t, name, "highest tx/version", slices.Max(tx), 12.6, 0.05)
	quoted(t, name, "freshness at 50 nodes", tb.at(t, "freshness", "50"), 0.27, 0.005)
	quoted(t, name, "freshness at 400 nodes", tb.at(t, "freshness", "400"), 0.12, 0.005)
	slices.Reverse(fresh)
	holds(t, name, "freshness falls with every doubling of the network", increasing(fresh), fresh)
}

func TestClaimsE14(t *testing.T) {
	tb := readResult(t, "e14_0.csv")
	const name = "e14_0.csv"
	fresh, tx := tb.column(t, "freshness"), tb.column(t, "tx/version")
	for i, want := range []float64{0.192, 0.283, 0.303, 0.332} {
		quoted(t, name, "freshness at rebuild interval "+tb.rows[i][0]+" days", fresh[i], want, 0.0005)
	}
	holds(t, name, "freshness rises as rebuilds get more frequent (never, 4, 2, 1 days)", increasing(fresh), fresh)
	quoted(t, name, "daily rebuild's gain over the static hierarchy (%)", 100*(fresh[3]/fresh[0]-1), 73, 0.5)
	holds(t, name, "tx/version rises as rebuilds get more frequent", increasing(tx), tx)
	quoted(t, name, "static tx/version", tx[0], 6.3, 0.05)
	quoted(t, name, "daily-rebuild tx/version", tx[3], 11.3, 0.05)
}

func TestClaimsE16(t *testing.T) {
	tb := readResult(t, "e16_0.csv")
	const name = "e16_0.csv"
	for _, policy := range []string{"lru", "lfu"} {
		for _, col := range []string{"freshness", "validAccess"} {
			var xs []float64
			for _, capacity := range []string{"2", "5", "10", "20"} {
				xs = append(xs, tb.at(t, col, capacity, policy))
			}
			holds(t, name, policy+" "+col+" rises with capacity", increasing(xs), xs)
		}
	}
	quoted(t, name, "lru validAccess at capacity 20", tb.at(t, "validAccess", "20", "lru"), 0.99, 0.005)
	quoted(t, name, "lru validAccess at capacity 2", tb.at(t, "validAccess", "2", "lru"), 0.72, 0.005)
	quoted(t, name, "lru freshness at capacity 20", tb.at(t, "freshness", "20", "lru"), 0.39, 0.005)
	quoted(t, name, "lru freshness at capacity 2", tb.at(t, "freshness", "2", "lru"), 0.057, 0.0005)
	quoted(t, name, "lfu validAccess at capacity 2", tb.at(t, "validAccess", "2", "lfu"), 0.81, 0.005)
	quoted(t, name, "lfu freshness at capacity 2", tb.at(t, "freshness", "2", "lfu"), 0.053, 0.0005)
	for _, capacity := range []string{"2", "5"} {
		l, f := tb.at(t, "validAccess", capacity, "lru"), tb.at(t, "validAccess", capacity, "lfu")
		holds(t, name, "lfu beats lru on validAccess at capacity "+capacity, f > l, f, l)
	}
	for _, capacity := range []string{"2", "5", "10"} {
		l, f := tb.at(t, "freshness", capacity, "lru"), tb.at(t, "freshness", capacity, "lfu")
		holds(t, name, "lru beats lfu on freshness at capacity "+capacity, l > f, l, f)
	}
}

func TestClaimsE17(t *testing.T) {
	tb := readResult(t, "e17_0.csv")
	const name = "e17_0.csv"
	gap := tb.at(t, "absGap", "infocom-like")
	holds(t, name, "infocom-like forecast within 0.05 of the measurement", gap < 0.05, gap)
	quoted(t, name, "reality-like absGap", tb.at(t, "absGap", "reality-like"), 0.037, 0.0005)
}

func TestClaimsE19(t *testing.T) {
	// Reality-like's measurement phase is 21 days, so its 21 daily
	// buckets are whole; infocom-like's is 2.8 days, whose last half-day
	// bucket holds 0.3 day.
	for _, q := range []struct {
		file    string
		band    float64
		partial int
	}{{"e19_0.csv", 0.05, 0}, {"e19_1.csv", 0.06, 1}} {
		tb := readResult(t, q.file)
		for i, row := range tb.rows {
			v := make([]float64, 4)
			for j := range v {
				v[j] = tb.num(t, row[j+1])
			}
			holds(t, q.file, "norefresh ≤ direct < hierarchical < epidemic at t="+row[0],
				v[0] <= v[1] && v[1] < v[2] && v[2] < v[3], v)
			if i > 0 {
				holds(t, q.file, "norefresh is 0 after the first bucket, t="+row[0], v[0] == 0, v[0])
			}
		}
		for _, s := range []string{"direct", "hierarchical", "epidemic"} {
			xs := tb.column(t, s)
			d := maxDev(xs[:len(xs)-q.partial])
			holds(t, q.file, s+": every whole bucket within "+strconv.FormatFloat(q.band, 'g', -1, 64)+" of the scheme's mean",
				d <= q.band, d)
		}
	}
	tb := readResult(t, "e19_1.csv")
	h := tb.column(t, "hierarchical")
	holds(t, "e19_1.csv", "the last, partial bucket reads highest for hierarchical", h[len(h)-1] > slices.Max(h[:len(h)-1]), h)
}

func TestClaimsE21(t *testing.T) {
	tb := readResult(t, "e21_0.csv")
	const name = "e21_0.csv"
	quoted(t, name, "nodes", tb.at(t, "nodes", "10000"), 10000, 0)
	quoted(t, name, "communities", tb.at(t, "communities", "10000"), 500, 0)
	quoted(t, name, "contacts (millions)", tb.at(t, "contacts", "10000")/1e6, 2.43, 0.005)
	quoted(t, name, "freshness", tb.at(t, "freshness", "10000"), 0.006, 0.0005)
	quoted(t, name, "validAnswers", tb.at(t, "validAnswers", "10000"), 1, 0)
}

// TestClaimsSameTraceAsE2: E5, E9 and E19 run the default scenario, as E2
// does at R = 4 h, on the traces of E2's replicate 0, and these schemes'
// freshness does not depend on the protocol seed. So E5's and E9's
// freshness equal E2's R = 4 h entries, and E19's reality-like daily
// series averages to them.
func TestClaimsSameTraceAsE2(t *testing.T) {
	e5, e9 := readResult(t, "e5_0.csv"), readResult(t, "e9_0.csv")
	for _, p := range bothPresets {
		e2 := e2FourHours(t, p)
		for _, tb := range []resultTable{e5, e9} {
			for _, row := range tb.rows {
				scheme := row[1]
				want, ok := e2[scheme]
				if row[0] != p || !ok {
					continue
				}
				got := tb.cell(t, "freshness", p, scheme)
				holds(t, tb.name, p+" "+scheme+" freshness equals E2's R = 4 h entry "+want, got == want, got)
			}
		}
	}
	e19, e2 := readResult(t, "e19_0.csv"), e2FourHours(t, "reality-like")
	for _, s := range e19.header[1:] {
		quoted(t, "e19_0.csv", s+"'s daily mean against E2's R = 4 h entry", mean(e19.column(t, s)), e19.num(t, e2[s]), 0.005)
	}
}
