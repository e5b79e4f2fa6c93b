package expt

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The claims EXPERIMENTS.md makes about E1 to E6, E8 to E21, and its
// headline claims 1 to 3, checked against the
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

// falls returns the steps i at which xs[i] < xs[i-1].
func falls(xs []float64) []int {
	var out []int
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			out = append(out, i)
		}
	}
	return out
}

func nonDecreasing(xs []float64) bool { return len(falls(xs)) == 0 }

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

// freshnessOrder is E2's and E4's column order, which is also the
// freshness ordering they claim at every point.
var freshnessOrder = []string{"norefresh", "direct", "hierarchical-norep", "hierarchical", "epidemic"}

// holdsOrder checks that every row of the table ranks the schemes
// strictly in the given order.
func holdsOrder(t *testing.T, tb resultTable, order []string) {
	t.Helper()
	for _, row := range tb.rows {
		var xs []float64
		for _, s := range order {
			xs = append(xs, tb.num(t, row[tb.col(t, s)]))
		}
		holds(t, tb.name, tb.header[0]+"="+row[0]+": "+strings.Join(order, " < "), increasing(xs), row)
	}
}

// ratios returns column a over column b, row by row.
func ratios(t *testing.T, tb resultTable, a, b string) []float64 {
	t.Helper()
	num, den := tb.column(t, a), tb.column(t, b)
	out := make([]float64, len(num))
	for i := range num {
		out[i] = num[i] / den[i]
	}
	return out
}

// gaps returns column a minus column b, row by row.
func gaps(t *testing.T, tb resultTable, a, b string) []float64 {
	t.Helper()
	x, y := tb.column(t, a), tb.column(t, b)
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}

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

func TestClaimsE2(t *testing.T) {
	for _, file := range []string{"e2_0.csv", "e2_1.csv"} {
		tb := readResult(t, file)
		holdsOrder(t, tb, freshnessOrder)
		for _, s := range freshnessOrder {
			col := tb.column(t, s)
			if s == "norefresh" {
				holds(t, file, s+" never falls with R", nonDecreasing(col), col)
				continue
			}
			holds(t, file, s+" rises with R", increasing(col), col)
		}
	}
	tb := readResult(t, "e2_0.csv")
	for _, q := range []struct {
		r    string
		want []float64
	}{
		{"2", []float64{0, 0.0477, 0.05314, 0.08828, 0.2374}},
		{"8", []float64{0.0006276, 0.1035, 0.1506, 0.2878, 0.659}},
		{"24", []float64{0.006695, 0.1518, 0.3171, 0.5314, 0.8452}},
	} {
		for i, s := range freshnessOrder {
			quoted(t, tb.name, "R="+q.r+" "+s, tb.at(t, s, q.r), q.want[i], 0)
		}
	}
	quoted(t, tb.name, "R=4 norefresh", tb.at(t, "norefresh", "4"), 0, 0)
	up := ratios(t, tb, "hierarchical", "direct")
	holds(t, tb.name, "hierarchical/direct rises at every step of R", increasing(up), up)

	info := readResult(t, "e2_1.csv")
	down := ratios(t, info, "hierarchical", "direct")
	slices.Reverse(down)
	holds(t, info.name, "hierarchical/direct falls at every step of R", increasing(down), down)
	margin := gaps(t, info, "hierarchical", "direct")
	peak := slices.Index(margin, slices.Max(margin))
	holds(t, info.name, "hierarchical's margin over direct peaks at R = 2 h", info.rows[peak][0] == "2", margin)
	quoted(t, info.name, "hierarchical's peak margin over direct", margin[peak], 0.302, 0.0005)
	quoted(t, info.name, "hierarchical's margin over direct at R = 8 h", margin[len(margin)-1], 0.258, 0.0005)
}

// TestClaimsHeadline1 checks headline claim 1, the freshness gain over
// direct refreshing, on E2's tables.
func TestClaimsHeadline1(t *testing.T) {
	for _, q := range []struct {
		file, r      string
		lo, hi, h, d float64
	}{
		{"e2_0.csv", "24", 1.85, 3.50, 0.531, 0.152},
		{"e2_1.csv", "2", 1.66, 2.87, 0.507, 0.206},
	} {
		tb := readResult(t, q.file)
		rs := ratios(t, tb, "hierarchical", "direct")
		quoted(t, q.file, "lowest hierarchical/direct", slices.Min(rs), q.lo, 0.005)
		quoted(t, q.file, "highest hierarchical/direct", slices.Max(rs), q.hi, 0.005)
		quoted(t, q.file, "hierarchical at R="+q.r, tb.at(t, "hierarchical", q.r), q.h, 0.0005)
		quoted(t, q.file, "direct at R="+q.r, tb.at(t, "direct", q.r), q.d, 0.0005)
	}
}

// TestClaimsE3 checks E3 and headline claim 2, the validity of data
// access.
func TestClaimsE3(t *testing.T) {
	tb := readResult(t, "e3_0.csv")
	for _, q := range []struct {
		scheme      string
		lo, hi, tol float64
	}{
		{"norefresh", 0.3919, 0.3973, 0.00005},
		{"direct", 0.6817, 0.6962, 0.00005},
		{"hierarchical", 0.93, 0.94, 0.005},
	} {
		col := tb.column(t, q.scheme)
		quoted(t, tb.name, "lowest "+q.scheme, slices.Min(col), q.lo, q.tol)
		quoted(t, tb.name, "highest "+q.scheme, slices.Max(col), q.hi, q.tol)
	}
	for _, s := range freshnessOrder {
		col := tb.column(t, s)
		span := slices.Max(col) - slices.Min(col)
		holds(t, tb.name, s+" is flat in query rate: spans at most 0.0145", span <= 0.0145+1e-12, span)
	}
	holdsOrder(t, tb, []string{"norefresh", "direct", "hierarchical"})

	info := readResult(t, "e3_1.csv")
	var refreshing []float64
	for _, s := range freshnessOrder[1:] {
		refreshing = append(refreshing, info.column(t, s)...)
	}
	low := slices.Min(refreshing)
	holds(t, info.name, "every refreshing scheme reads at least 0.98", low >= 0.98, low)
	quoted(t, info.name, "lowest refreshing cell", low, 0.9901, 0.00005)
}

func TestClaimsE4(t *testing.T) {
	for _, file := range []string{"e4_0.csv", "e4_1.csv"} {
		holdsOrder(t, readResult(t, file), freshnessOrder)
	}
	tb := readResult(t, "e4_0.csv")
	direct := tb.column(t, "direct")
	quoted(t, tb.name, "direct at K=2", tb.at(t, "direct", "2"), 0.025, 0.0005)
	quoted(t, tb.name, "direct at K=16", tb.at(t, "direct", "16"), 0.058, 0.0005)
	top := slices.Index(direct, slices.Max(direct))
	holds(t, tb.name, "direct peaks at K=4", tb.rows[top][0] == "4", direct)
	quoted(t, tb.name, "direct's peak", direct[top], 0.085, 0.0005)
	past := slices.Clone(direct[top:])
	slices.Reverse(past)
	holds(t, tb.name, "direct falls at every step past its peak", increasing(past), direct)
	h2, h16 := tb.at(t, "hierarchical", "2"), tb.at(t, "hierarchical", "16")
	quoted(t, tb.name, "hierarchical at K=2", h2, 0.106, 0.0005)
	quoted(t, tb.name, "hierarchical at K=16", h16, 0.168, 0.0005)
	holds(t, tb.name, "hierarchical is fresher at K=16 than at K=2", h16 > h2, h2, h16)

	info := readResult(t, "e4_1.csv")
	hier := info.column(t, "hierarchical")
	quoted(t, info.name, "hierarchical at K=2", info.at(t, "hierarchical", "2"), 0.607, 0.0005)
	quoted(t, info.name, "hierarchical at K=16", info.at(t, "hierarchical", "16"), 0.603, 0.0005)
	dip := slices.Index(hier, slices.Min(hier))
	holds(t, info.name, "hierarchical dips lowest at K=8", info.rows[dip][0] == "8", hier)
	quoted(t, info.name, "hierarchical's dip", hier[dip], 0.581, 0.0005)

	for _, q := range []struct {
		tb          resultTable
		first, last float64
		narrowsAt   string
	}{{tb, 0.081, 0.109, "4"}, {info, 0.244, 0.329, "16"}} {
		g := gaps(t, q.tb, "hierarchical", "direct")
		quoted(t, q.tb.name, "hierarchical's gap over direct at K=2", g[0], q.first, 0.0005)
		quoted(t, q.tb.name, "hierarchical's gap over direct at K=16", g[len(g)-1], q.last, 0.0005)
		holds(t, q.tb.name, "the gap is wider at K=16 than at K=2", g[len(g)-1] > g[0], g)
		f := falls(g)
		holds(t, q.tb.name, "the gap narrows once, on the step to K="+q.narrowsAt,
			len(f) == 1 && q.tb.rows[f[0]][0] == q.narrowsAt, g)
	}
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
	quoted(t, "e6_0.csv", "epidemic's deliveries past the lifetime (%)", 100*(1-tb.at(t, "epidemic", "2")), 3.4, 0.05)
	h, n := tb.at(t, "hierarchical", "0.25"), tb.at(t, "hierarchical-norep", "0.25")
	holds(t, "e6_0.csv", "hierarchical's CDF starts below hierarchical-norep's", h < n, h, n)

	e5 := readResult(t, "e5_0.csv")
	hTx, nTx := e5.at(t, "refreshTx", "reality-like", "hierarchical"), e5.at(t, "refreshTx", "reality-like", "hierarchical-norep")
	quoted(t, "e5_0.csv", "reality-like hierarchical refreshTx", hTx, 2362, 0)
	quoted(t, "e5_0.csv", "reality-like hierarchical-norep refreshTx", nTx, 983, 0)
}

func TestClaimsE8(t *testing.T) {
	tb := readResult(t, "e8_0.csv")
	hier := tb.column(t, "hierarchical")
	quoted(t, tb.name, "hierarchical at W=0.5R", tb.at(t, "hierarchical", "0.5"), 0.40, 0.005)
	holds(t, tb.name, "hierarchical never falls as the window loosens", nonDecreasing(hier), hier)
	d, e := tb.at(t, "direct", "0.5"), tb.at(t, "epidemic", "0.5")
	quoted(t, tb.name, "direct at W=0.5R", d, 0.7133, 0.00005)
	quoted(t, tb.name, "epidemic at W=0.5R", e, 0.7122, 0.00005)
	holds(t, tb.name, "direct edges epidemic at W=0.5R", d > e, d, e)
	quoted(t, tb.name, "epidemic at W=2R", tb.at(t, "epidemic", "2"), 0.9655, 0.00005)
	quoted(t, tb.name, "epidemic at W=3R", tb.at(t, "epidemic", "3"), 1, 0)

	info := readResult(t, "e8_1.csv")
	ie, ih, id := info.at(t, "epidemic", "0.5"), info.at(t, "hierarchical", "0.5"), info.at(t, "direct", "0.5")
	quoted(t, info.name, "epidemic at W=0.5R", ie, 0.9167, 0.00005)
	quoted(t, info.name, "hierarchical at W=0.5R", ih, 0.9023, 0.00005)
	quoted(t, info.name, "direct at W=0.5R", id, 0.7316, 0.00005)
	holds(t, info.name, "epidemic wins at W=0.5R", ie > ih && ie > id, ie, ih, id)
	for _, w := range []string{"1", "2", "3"} {
		quoted(t, info.name, "epidemic at W="+w+"R", info.at(t, "epidemic", w), 1, 0)
	}

	for _, tb := range []resultTable{tb, info} {
		for _, w := range []string{"1", "2", "3"} {
			quoted(t, tb.name, "direct at W="+w+"R", tb.at(t, "direct", w), 1, 0)
		}
		for _, w := range []string{"2", "3"} {
			quoted(t, tb.name, "hierarchical at W="+w+"R", tb.at(t, "hierarchical", w), 1, 0)
		}
	}
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

func TestClaimsE11(t *testing.T) {
	schemes := []string{"direct", "hierarchical", "epidemic"}
	for _, name := range []string{"e11_0.csv", "e11_1.csv"} {
		tb := readResult(t, name)
		for _, s := range schemes {
			xs := tb.column(t, s)
			slices.Reverse(xs)
			holds(t, name, s+"'s freshness falls with every step", increasing(xs), xs)
		}
		for _, row := range tb.rows {
			d, h, e := tb.num(t, row[1]), tb.num(t, row[2]), tb.num(t, row[3])
			holds(t, name, "direct < hierarchical < epidemic at "+tb.header[0]+" "+row[0], d < h && h < e, d, h, e)
		}
	}
	loss := readResult(t, "e11_1.csv")
	const lossName = "e11_1.csv"
	quoted(t, lossName, "hierarchical without loss", loss.at(t, "hierarchical", "0"), 0.4037, 0.00005)
	quoted(t, lossName, "hierarchical at 50% loss", loss.at(t, "hierarchical", "0.5"), 0.2108, 0.00005)
	quoted(t, lossName, "direct without loss", loss.at(t, "direct", "0"), 0.1774, 0.00005)
	quoted(t, lossName, "direct at 50% loss", loss.at(t, "direct", "0.5"), 0.1172, 0.00005)
	quoted(t, lossName, "hierarchical/direct at 50% loss", loss.at(t, "hierarchical", "0.5")/loss.at(t, "direct", "0.5"), 1.8, 0.05)
	churn := readResult(t, "e11_0.csv")
	const churnName = "e11_0.csv"
	for _, q := range []struct {
		scheme string
		want   float64
	}{{"direct", 0.0134}, {"hierarchical", 0.0180}, {"epidemic", 0.0198}} {
		got := churn.at(t, q.scheme, "0.25")
		quoted(t, churnName, q.scheme+" at duty cycle 0.25", got, q.want, 0.00005)
		holds(t, churnName, q.scheme+" below 0.02 at duty cycle 0.25", got < 0.02, got)
	}
}

func TestClaimsE12(t *testing.T) {
	tb := readResult(t, "e12_0.csv")
	const name = "e12_0.csv"
	for _, s := range []string{"direct-rep", "hierarchical"} {
		o, d := tb.at(t, "freshness", s, "oracle"), tb.at(t, "freshness", s, "distributed")
		ci := math.Min(tb.at(t, "freshCI95", s, "oracle"), tb.at(t, "freshCI95", s, "distributed"))
		holds(t, name, s+": distributed knowledge moves freshness by less than either CI95", math.Abs(d-o) < ci, o, d, ci)
	}
	quoted(t, name, "hierarchical oracle freshness", tb.at(t, "freshness", "hierarchical", "oracle"), 0.4037, 0.00005)
	quoted(t, name, "hierarchical distributed freshness", tb.at(t, "freshness", "hierarchical", "distributed"), 0.4168, 0.00005)
	quoted(t, name, "hierarchical oracle CI95", tb.at(t, "freshCI95", "hierarchical", "oracle"), 0.031, 0.0005)
	quoted(t, name, "hierarchical distributed CI95", tb.at(t, "freshCI95", "hierarchical", "distributed"), 0.027, 0.0005)
	quoted(t, name, "direct-rep oracle freshness", tb.at(t, "freshness", "direct-rep", "oracle"), 0.3766, 0.00005)
	quoted(t, name, "direct-rep distributed freshness", tb.at(t, "freshness", "direct-rep", "distributed"), 0.3825, 0.00005)
}

func TestClaimsE13(t *testing.T) {
	tb := readResult(t, "e13_0.csv")
	const name = "e13_0.csv"
	// The prose table quotes every cell as the CSV prints it.
	for _, q := range []struct {
		scheme                    string
		fresh, valid, tx, share   float64
		freshTol, validTol, txTol float64
	}{
		{"norefresh", 0.002867, 0.5838, 0.03728, 1, 5e-7, 5e-5, 5e-6},
		{"direct", 0.1774, 0.9396, 1.614, 1, 5e-5, 5e-5, 5e-4},
		{"direct-rep", 0.3766, 0.9869, 10.74, 0.6899, 5e-5, 5e-5, 5e-3},
		{"spray", 0.5271, 0.992, 12.31, 0.351, 5e-5, 5e-4, 5e-3},
		{"random-rep", 0.3381, 0.9871, 8.601, 0.3002, 5e-5, 5e-5, 5e-4},
		{"hierarchical-norep", 0.2064, 0.9614, 2.785, 0.4521, 5e-5, 5e-5, 5e-4},
		{"hierarchical", 0.4037, 0.9909, 12.63, 0.234, 5e-5, 5e-5, 5e-3},
		{"epidemic", 0.7405, 0.9952, 38.58, 0.1473, 5e-5, 5e-5, 5e-3},
	} {
		quoted(t, name, q.scheme+" freshness", tb.at(t, "freshness", q.scheme), q.fresh, q.freshTol)
		quoted(t, name, q.scheme+" validAccess", tb.at(t, "validAccess", q.scheme), q.valid, q.validTol)
		quoted(t, name, q.scheme+" tx/version", tb.at(t, "tx/version", q.scheme), q.tx, q.txTol)
		quoted(t, name, q.scheme+" sourceTxShare", tb.at(t, "sourceTxShare", q.scheme), q.share, 5e-5)
	}
	f := func(s string) float64 { return tb.at(t, "freshness", s) }
	tx := func(s string) float64 { return tb.at(t, "tx/version", s) }
	holds(t, name, "random-rep is less fresh than hierarchical", f("random-rep") < f("hierarchical"))
	holds(t, name, "random-rep sends fewer transmissions than hierarchical", tx("random-rep") < tx("hierarchical"))
	quoted(t, name, "hierarchical's freshness over random-rep's", f("hierarchical")-f("random-rep"), 0.066, 0.0005)
	quoted(t, name, "hierarchical's extra tx/version over random-rep's", tx("hierarchical")-tx("random-rep"), 4.0, 0.05)
	quoted(t, name, "random-rep freshness per tx/version", f("random-rep")/tx("random-rep"), 0.039, 0.0005)
	quoted(t, name, "hierarchical freshness per tx/version", f("hierarchical")/tx("hierarchical"), 0.032, 0.0005)
	quoted(t, name, "spray freshness per tx/version", f("spray")/tx("spray"), 0.043, 0.0005)
	holds(t, name, "spray beats hierarchical on freshness", f("spray") > f("hierarchical"))
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

func TestClaimsE15(t *testing.T) {
	tb := readResult(t, "e15_0.csv")
	const name = "e15_0.csv"
	for _, s := range []string{"direct", "hierarchical"} {
		for _, col := range []string{"freshness", "validAccess"} {
			r := tb.at(t, col, "random", s)
			for _, p := range []string{"top-centrality", "greedy-coverage"} {
				v := tb.at(t, col, p, s)
				holds(t, name, s+": "+p+" beats random on "+col, v > r, v, r)
			}
		}
	}
	for _, q := range []struct {
		placement    string
		fresh, valid float64
	}{{"greedy-coverage", 0.4037, 0.9904}, {"top-centrality", 0.4533, 0.9932}, {"random", 0.3746, 0.9833}} {
		quoted(t, name, q.placement+" hierarchical freshness", tb.at(t, "freshness", q.placement, "hierarchical"), q.fresh, 0.00005)
		quoted(t, name, q.placement+" hierarchical validAccess", tb.at(t, "validAccess", q.placement, "hierarchical"), q.valid, 0.00005)
	}
	h := func(col, p string) float64 { return tb.at(t, col, p, "hierarchical") }
	lead := h("freshness", "greedy-coverage") - h("freshness", "random")
	quoted(t, name, "greedy-coverage's hierarchical freshness lead over random", lead, 0.029, 0.0005)
	quoted(t, name, "greedy-coverage hierarchical CI95", h("freshCI95", "greedy-coverage"), 0.031, 0.0005)
	quoted(t, name, "random hierarchical CI95", h("freshCI95", "random"), 0.036, 0.0005)
	holds(t, name, "that lead is inside both CI95s", lead < h("freshCI95", "greedy-coverage") && lead < h("freshCI95", "random"))
	for _, col := range []string{"freshness", "validAccess"} {
		holds(t, name, "hierarchical: top-centrality beats greedy-coverage on "+col, h(col, "top-centrality") > h(col, "greedy-coverage"))
	}
	quoted(t, name, "top-centrality's hierarchical freshness lead over greedy-coverage",
		h("freshness", "top-centrality")-h("freshness", "greedy-coverage"), 0.050, 0.0005)
	d := func(col, p string) float64 { return tb.at(t, col, p, "direct") }
	holds(t, name, "direct: greedy-coverage is fresher than top-centrality", d("freshness", "greedy-coverage") > d("freshness", "top-centrality"))
	holds(t, name, "direct: top-centrality serves more valid queries", d("validAccess", "top-centrality") > d("validAccess", "greedy-coverage"))
	quoted(t, name, "direct greedy-coverage freshness", d("freshness", "greedy-coverage"), 0.1774, 0.00005)
	quoted(t, name, "direct top-centrality freshness", d("freshness", "top-centrality"), 0.1681, 0.00005)
	quoted(t, name, "direct top-centrality validAccess", d("validAccess", "top-centrality"), 0.9526, 0.00005)
	quoted(t, name, "direct greedy-coverage validAccess", d("validAccess", "greedy-coverage"), 0.9369, 0.00005)
	var worstHier, bestDirect = 1.0, 0.0
	for _, p := range []string{"random", "top-centrality", "greedy-coverage"} {
		worstHier, bestDirect = math.Min(worstHier, h("freshness", p)), math.Max(bestDirect, d("freshness", p))
	}
	holds(t, name, "hierarchical under the worst placement beats direct under the best", worstHier > bestDirect, worstHier, bestDirect)
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

func TestClaimsE18(t *testing.T) {
	tb := readResult(t, "e18_0.csv")
	const name = "e18_0.csv"
	relays := []string{"0", "1", "3"}
	for _, s := range []string{"direct", "hierarchical"} {
		var answered, delay []float64
		for _, q := range relays {
			answered = append(answered, tb.at(t, "answered", s, q))
			delay = append(delay, tb.at(t, "accessDelay(h)", s, q))
		}
		slices.Reverse(delay)
		holds(t, name, s+": answered rises with every added relay", increasing(answered), answered)
		holds(t, name, s+": access delay falls with every added relay", increasing(delay), delay)
	}
	quoted(t, name, "direct answered without delegation", tb.at(t, "answered", "direct", "0"), 0.9359, 0.00005)
	quoted(t, name, "direct answered at Q=3", tb.at(t, "answered", "direct", "3"), 0.9775, 0.00005)
	quoted(t, name, "direct access delay without delegation (h)", tb.at(t, "accessDelay(h)", "direct", "0"), 8.127, 0.0005)
	quoted(t, name, "direct access delay at Q=3 (h)", tb.at(t, "accessDelay(h)", "direct", "3"), 3.882, 0.0005)
	quoted(t, name, "direct query transmissions per query at Q=3", tb.at(t, "queryTx/query", "direct", "3"), 2.3, 0.05)
	quoted(t, name, "hierarchical access delay without delegation (h)", tb.at(t, "accessDelay(h)", "hierarchical", "0"), 1.5, 0.05)
	quoted(t, name, "hierarchical access delay at Q=3 (h)", tb.at(t, "accessDelay(h)", "hierarchical", "3"), 1.0, 0.05)
	quoted(t, name, "hierarchical answered without delegation", tb.at(t, "answered", "hierarchical", "0"), 0.9925, 0.00005)
	for _, col := range []string{"answered", "accessDelay(h)"} {
		gain := func(s string) float64 { return math.Abs(tb.at(t, col, s, "3") - tb.at(t, col, s, "0")) }
		holds(t, name, "delegation moves "+col+" less under hierarchical than under direct",
			gain("hierarchical") < gain("direct"), gain("hierarchical"), gain("direct"))
	}
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

func TestClaimsE20(t *testing.T) {
	tb := readResult(t, "e20_0.csv")
	const name = "e20_0.csv"
	quoted(t, name, "fanout 1 mean tree depth", tb.at(t, "meanTreeDepth", "1"), 6, 0)
	quoted(t, name, "fanout 1 freshness", tb.at(t, "freshness", "1"), 0.2952, 0.00005)
	quoted(t, name, "fanout 3 freshness", tb.at(t, "freshness", "3"), 0.4037, 0.00005)
	quoted(t, name, "freshness fanout 1 costs against fanout 3",
		tb.at(t, "freshness", "3")-tb.at(t, "freshness", "1"), 0.11, 0.005)
	quoted(t, name, "fanout 1 sourceTxShare", tb.at(t, "sourceTxShare", "1"), 0.1396, 0.00005)
	share := tb.column(t, "sourceTxShare")
	holds(t, name, "fanout 1 puts the least load on the source", share[0] == slices.Min(share) && share[0] < share[1], share)
	fresh := tb.column(t, "freshness")
	holds(t, name, "freshness rises up to the default fanout 3", increasing(fresh[:3]), fresh)
	for _, f := range []string{"5", "8"} {
		for _, col := range tb.header[1:] {
			holds(t, name, "fanout "+f+" reads as fanout 3 in "+col, tb.cell(t, col, f) == tb.cell(t, col, "3"))
		}
	}
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
