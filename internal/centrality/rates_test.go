package centrality

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// seededTrace builds a deterministic contact trace with a mix of frequent
// and rare pairs.
func seededTrace(t *testing.T, n int, seed int64) *trace.Trace {
	t.Helper()
	rng := stats.NewRNG(seed)
	tr := &trace.Trace{Name: "diff", N: n, Duration: 10000}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() > 0.3 {
				continue
			}
			contacts := 1 + rng.Intn(5)
			for c := 0; c < contacts; c++ {
				start := rng.Float64() * 9000
				tr.Contacts = append(tr.Contacts, trace.Contact{
					A: trace.NodeID(a), B: trace.NodeID(b), Start: start, End: start + 60,
				})
			}
		}
	}
	tr.Normalize()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// refScores is the O(n²) definition of Scores: every ordered pair, read
// through Rate.
func refScores(v RateView, window float64) []float64 {
	n := v.N()
	scores := make([]float64, n)
	if n <= 1 {
		return scores
	}
	for a := 0; a < n; a++ {
		var sum float64
		for b := 0; b < n; b++ {
			if a != b {
				sum += stats.ExpCDF(v.Rate(trace.NodeID(a), trace.NodeID(b)), window)
			}
		}
		scores[a] = sum / float64(n-1)
	}
	return scores
}

// refSelect is the O(k·n²) definition of greedy coverage selection: every
// candidate's gain summed over every other node, read through Rate, and 0
// for a candidate whose rate to every other node is 0.
func refSelect(v RateView, window float64, k int, exclude map[trace.NodeID]bool) []trace.NodeID {
	n := v.N()
	notCovered := make([]float64, n)
	for j := range notCovered {
		notCovered[j] = 1
	}
	inSet := make([]bool, n)
	var selected []trace.NodeID
	for len(selected) < k {
		best, bestGain := trace.NodeID(-1), -1.0
		for cand := 0; cand < n; cand++ {
			if inSet[cand] || exclude[trace.NodeID(cand)] {
				continue
			}
			gain, met := notCovered[cand], false
			for j := 0; j < n; j++ {
				if j == cand {
					continue
				}
				rate := v.Rate(trace.NodeID(cand), trace.NodeID(j))
				met = met || rate > 0
				if !inSet[j] {
					gain += notCovered[j] * stats.ExpCDF(rate, window)
				}
			}
			if !met {
				gain = 0
			}
			if gain > bestGain {
				best, bestGain = trace.NodeID(cand), gain
			}
		}
		selected = append(selected, best)
		inSet[best] = true
		notCovered[best] = 0
		for j := 0; j < n; j++ {
			if j != int(best) {
				notCovered[j] *= 1 - stats.ExpCDF(v.Rate(best, trace.NodeID(j)), window)
			}
		}
	}
	return selected
}

// TestScoresMatchBruteForce: walking rows must be bit-identical to the
// full pairwise sum, since pairs that never meet add exactly 0.
func TestScoresMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		tr := seededTrace(t, 40, seed)
		s, err := FromTrace(tr, 0, tr.Duration)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []float64{600, 3600, 6 * 3600} {
			if got, want := Scores(s, w), refScores(s, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d window %v: Scores\n%v\nbrute force\n%v", seed, w, got, want)
			}
		}
	}
}

// tieCase is a store whose candidates tie on gain, so its picks rest on
// the lowest-ID-first rule, with an exclude set to run it under as well.
type tieCase struct {
	name    string
	s       RateStore
	exclude map[trace.NodeID]bool
}

// tieStores returns an equal-rate 12-node ring, a 7-node complete graph,
// and two equal 4-cliques beside five isolated nodes.
func tieStores(t *testing.T) []tieCase {
	const rate = 0.5 / 3600
	ring := make(map[[2]trace.NodeID]float64)
	for i := 0; i < 12; i++ {
		ring[[2]trace.NodeID{trace.NodeID(i), trace.NodeID((i + 1) % 12)}] = rate
	}
	clique := func(pairs map[[2]trace.NodeID]float64, ids ...trace.NodeID) map[[2]trace.NodeID]float64 {
		for i, a := range ids {
			for _, b := range ids[i+1:] {
				pairs[[2]trace.NodeID{a, b}] = rate
			}
		}
		return pairs
	}
	complete := clique(make(map[[2]trace.NodeID]float64), 0, 1, 2, 3, 4, 5, 6)
	twoCliques := clique(clique(make(map[[2]trace.NodeID]float64), 2, 3, 4, 5), 7, 8, 9, 10)
	return []tieCase{
		{"ring", mustRates(t, 12, ring), map[trace.NodeID]bool{0: true, 6: true}},
		{"complete", mustRates(t, 7, complete), map[trace.NodeID]bool{0: true, 3: true}},
		{"two cliques", mustRates(t, 13, twoCliques), map[trace.NodeID]bool{2: true, 11: true}},
	}
}

// TestSelectionMatchesBruteForce: greedy selection over rows must pick the
// same nodes in the same order as the full pairwise gain loop, with and
// without excluded nodes. The tie stores hold the lowest-ID-first rule at
// every k; the 300-node trace at k=64 leaves most stale gains stale.
func TestSelectionMatchesBruteForce(t *testing.T) {
	check := func(name string, s RateStore, k int, exclude map[trace.NodeID]bool) {
		t.Helper()
		got, err := SelectCachingNodesExcluding(s, 6*3600, k, exclude)
		if err != nil {
			t.Fatal(err)
		}
		if want := refSelect(s, 6*3600, k, exclude); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s k=%d exclude %v: selected %v, brute force %v", name, k, exclude, got, want)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		tr := seededTrace(t, 50, seed)
		s, err := FromTrace(tr, 0, tr.Duration)
		if err != nil {
			t.Fatal(err)
		}
		for _, exclude := range []map[trace.NodeID]bool{nil, {0: true, 7: true, 31: true}} {
			for _, k := range []int{1, 4, 8, 20} {
				check(fmt.Sprintf("seed %d", seed), s, k, exclude)
			}
		}
	}
	for _, tc := range tieStores(t) {
		for _, exclude := range []map[trace.NodeID]bool{nil, tc.exclude} {
			for k := 1; k <= tc.s.N()-len(exclude); k++ {
				check(tc.name, tc.s, k, exclude)
			}
		}
	}
	tr := seededTrace(t, 300, 7)
	s, err := FromTrace(tr, 0, tr.Duration)
	if err != nil {
		t.Fatal(err)
	}
	check("300 nodes", s, 64, map[trace.NodeID]bool{0: true, 150: true})
}

// TestSelectionAllocsIndependentOfSize: selection allocates its three
// working slices and nothing per candidate or per pair, so its allocation
// count stays flat as n·k grows.
func TestSelectionAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n, k int) float64 {
		tr := seededTrace(t, n, int64(n))
		s, err := FromTrace(tr, 0, tr.Duration)
		if err != nil {
			t.Fatal(err)
		}
		exclude := map[trace.NodeID]bool{0: true}
		return testing.AllocsPerRun(5, func() {
			if _, err := SelectCachingNodesExcluding(s, 6*3600, k, exclude); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(20, 2), allocs(200, 32)
	if small != large || large > 3 {
		t.Fatalf("selection allocations: %v at n=20,k=2, %v at n=200,k=32; want the same, at most 3", small, large)
	}
}

// TestAppendCommonNeighborsMatchesRate checks every view's common
// neighbors against the definition, for every ordered pair: the store
// built from a trace, the distributed estimator's local views, and the
// empty view.
func TestAppendCommonNeighborsMatchesRate(t *testing.T) {
	tr := seededTrace(t, 25, 5)
	s, err := FromTrace(tr, 0, tr.Duration)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDistributedEstimator(tr.N, 0)
	for _, c := range tr.Contacts[:len(tr.Contacts)/2] {
		d.Observe(c.A, c.B, c.Start)
	}
	views := map[string]RateView{"store": s, "empty": EmptyView(tr.N)}
	for _, owner := range []trace.NodeID{0, 12} {
		v, err := d.View(owner, tr.Duration/2)
		if err != nil {
			t.Fatal(err)
		}
		views[fmt.Sprintf("local view of %d", owner)] = v
	}
	for name, v := range views {
		for a := 0; a < tr.N; a++ {
			for b := 0; b < tr.N; b++ {
				var want []CommonNeighbor
				for c := 0; c < tr.N; c++ {
					ra, rb := v.Rate(trace.NodeID(a), trace.NodeID(c)), v.Rate(trace.NodeID(c), trace.NodeID(b))
					if ra > 0 && rb > 0 {
						want = append(want, CommonNeighbor{ID: trace.NodeID(c), RateA: ra, RateB: rb})
					}
				}
				// dst keeps what it held: the result must extend it.
				got := v.AppendCommonNeighbors([]CommonNeighbor{{ID: -1}}, trace.NodeID(a), trace.NodeID(b))
				if got[0].ID != -1 || len(got[1:]) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got[1:], want)) {
					t.Fatalf("%s: common neighbors of (%d,%d) = %v, want %v after the prefix", name, a, b, got, want)
				}
			}
		}
	}
}

// TestSparseRatesBasics pins the store's semantics: symmetry, self-rate
// zero, unset zero, zero rates left out, ascending rows, distinct epochs.
func TestSparseRatesBasics(t *testing.T) {
	s, err := RatesFromPairs(10, map[[2]trace.NodeID]float64{{3, 7}: 0.125, {7, 2}: 0.25, {1, 4}: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Rate(3, 7); got != 0.125 {
		t.Fatalf("Rate(3,7) = %v", got)
	}
	if got := s.Rate(7, 3); got != 0.125 {
		t.Fatalf("Rate(7,3) = %v (not symmetric)", got)
	}
	if got := s.Rate(4, 4); got != 0 {
		t.Fatalf("self Rate = %v", got)
	}
	if got := s.Rate(3, 5); got != 0 {
		t.Fatalf("unset Rate = %v", got)
	}
	want := map[int][]neighbor{2: {{7, 0.25}}, 3: {{7, 0.125}}, 7: {{2, 0.25}, {3, 0.125}}}
	rows := s.rows()
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rows))
	}
	for a, row := range rows {
		if len(row) != len(want[a]) || (len(row) > 0 && !reflect.DeepEqual(row, want[a])) {
			t.Fatalf("row %d = %v, want %v", a, row, want[a])
		}
	}
}

// TestRatesFromPairsErrors covers the explicit-pair constructor's input
// checks.
func TestRatesFromPairsErrors(t *testing.T) {
	for name, pairs := range map[string]map[[2]trace.NodeID]float64{
		"out of range": {{0, 5}: 1},
		"negative id":  {{-1, 2}: 1},
		"self-pair":    {{2, 2}: 1},
		"negative":     {{0, 1}: -1},
		"NaN":          {{0, 1}: math.NaN()},
		"+Inf":         {{0, 1}: math.Inf(1)},
		"twice":        {{0, 1}: 1, {1, 0}: 2},
	} {
		if _, err := RatesFromPairs(5, pairs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestConstructorsRejectNonPositiveN: no constructor accepts an empty or
// negative network.
func TestConstructorsRejectNonPositiveN(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := RatesFromPairs(n, nil); err == nil {
			t.Fatalf("RatesFromPairs(%d) accepted", n)
		}
		if _, err := NewEstimator(n, 0); err == nil {
			t.Fatalf("NewEstimator(%d) accepted", n)
		}
		var e Estimator
		if err := e.Reset(n, 0); err == nil {
			t.Fatalf("Reset(%d) accepted", n)
		}
	}
}

// TestRatesBetweenSnapshotsErrors covers the windowed-rebuild error paths:
// non-positive window, node-count mismatch, zero snapshots, and backwards
// counts in both directions (a key decremented and a key deleted).
func TestRatesBetweenSnapshotsErrors(t *testing.T) {
	mk := func(n int, obs ...[2]int) CountSnapshot {
		e, err := NewEstimator(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range obs {
			e.Observe(trace.NodeID(o[0]), trace.NodeID(o[1]))
		}
		return e.Snapshot()
	}
	sp := mk(4, [2]int{0, 1})
	if _, err := RatesBetweenSnapshots(sp, sp, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := RatesBetweenSnapshots(mk(3), sp, 1); err == nil {
		t.Fatal("node-count mismatch accepted")
	}
	if _, err := RatesBetweenSnapshots(CountSnapshot{}, CountSnapshot{}, 1); err == nil {
		t.Fatal("zero snapshots accepted")
	}
	// Counts only grow: a later snapshot with fewer observations at a
	// shared key, or a key that disappeared entirely, is corruption.
	two := mk(4, [2]int{0, 1}, [2]int{0, 1})
	if _, err := RatesBetweenSnapshots(two, sp, 1); err == nil {
		t.Fatal("decremented pair accepted")
	}
	other := mk(4, [2]int{2, 3})
	if _, err := RatesBetweenSnapshots(sp, other, 1); err == nil {
		t.Fatal("vanished pair accepted")
	}
	// The happy path still works, divides by the window and leaves out
	// pairs that did not grow.
	r, err := RatesBetweenSnapshots(sp, mk(4, [2]int{0, 1}, [2]int{0, 1}, [2]int{2, 3}), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Rate(0, 1); got != 0.25 {
		t.Fatalf("windowed rate = %v, want 0.25", got)
	}
	if got := r.Rate(2, 3); got != 0.25 {
		t.Fatalf("new pair's windowed rate = %v, want 0.25", got)
	}
	r, err = RatesBetweenSnapshots(sp, sp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Rate(0, 1); got != 0 {
		t.Fatalf("unchanged pair's windowed rate = %v, want 0", got)
	}
}

// TestEstimatorErrorPaths covers Rates before any time elapsed, and Reset
// forgetting every earlier observation.
func TestEstimatorErrorPaths(t *testing.T) {
	e, err := NewEstimator(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Rates(100); err == nil {
		t.Fatal("Rates at start time accepted")
	}
	if _, err := e.Rates(50); err == nil {
		t.Fatal("Rates before start time accepted")
	}
	e.Observe(1, 2)
	if err := e.Reset(3, 0); err != nil {
		t.Fatal(err)
	}
	e.Observe(0, 2)
	r, err := e.Rates(10)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 3 || r.Rate(1, 2) != 0 || r.Rate(0, 2) != 0.1 {
		t.Fatalf("after Reset: N=%d Rate(1,2)=%v Rate(0,2)=%v", r.N(), r.Rate(1, 2), r.Rate(0, 2))
	}
}

// TestFromTraceErrors covers the trace-conversion error paths.
func TestFromTraceErrors(t *testing.T) {
	tr := seededTrace(t, 10, 5)
	if _, err := FromTrace(tr, 5, 5); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, err := FromTrace(tr, 10, 2); err == nil {
		t.Fatal("inverted window accepted")
	}
	bad := &trace.Trace{Name: "bad", N: 0, Duration: 1}
	if _, err := FromTrace(bad, 0, 1); err == nil {
		t.Fatal("zero-node trace accepted")
	}
}

// TestEmptyView pins the fallback view used before any rates exist.
func TestEmptyView(t *testing.T) {
	v := EmptyView(7)
	if v.N() != 7 {
		t.Fatalf("N = %d", v.N())
	}
	if v.Rate(0, 1) != 0 {
		t.Fatal("nonzero rate from empty view")
	}
	if got := v.AppendCommonNeighbors(nil, 0, 1); len(got) != 0 {
		t.Fatalf("empty view has common neighbors %v", got)
	}
}
