package centrality

import (
	"math"
	"testing"
	"testing/quick"

	"freshcache/internal/mobility"
	"freshcache/internal/trace"
)

// mustRates builds a store from explicit pair rates for tests where
// construction cannot fail.
func mustRates(t *testing.T, n int, pairs map[[2]trace.NodeID]float64) RateStore {
	t.Helper()
	s, err := RatesFromPairs(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// star returns rate 0.1 between node 0 and each other node of n.
func star(n int) map[[2]trace.NodeID]float64 {
	pairs := make(map[[2]trace.NodeID]float64)
	for i := 1; i < n; i++ {
		pairs[[2]trace.NodeID{0, trace.NodeID(i)}] = 0.1
	}
	return pairs
}

func TestFromTrace(t *testing.T) {
	tr := &trace.Trace{N: 3, Duration: 100, Contacts: []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 11},
		{A: 0, B: 1, Start: 50, End: 51},
		{A: 1, B: 2, Start: 60, End: 61},
	}}
	m, err := FromTrace(tr, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Rate(0, 1); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("rate(0,1) = %v, want 0.02", got)
	}
	if got := m.Rate(1, 2); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("rate(1,2) = %v, want 0.01", got)
	}
	if m.Rate(0, 2) != 0 {
		t.Fatal("never-met pair must be 0")
	}
	if _, err := FromTrace(tr, 5, 5); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestEstimatorMatchesOracle(t *testing.T) {
	tr := &trace.Trace{N: 3, Duration: 100, Contacts: []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 11},
		{A: 0, B: 1, Start: 50, End: 51},
		{A: 1, B: 2, Start: 60, End: 61},
	}}
	e, err := NewEstimator(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Contacts {
		e.Observe(c.A, c.B)
	}
	got, err := e.Rates(100)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FromTrace(tr, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if math.Abs(got.Rate(trace.NodeID(a), trace.NodeID(b))-want.Rate(trace.NodeID(a), trace.NodeID(b))) > 1e-12 {
				t.Fatalf("estimator disagrees with oracle at (%d,%d)", a, b)
			}
		}
	}
}

func TestEstimatorNoElapsedTime(t *testing.T) {
	e, err := NewEstimator(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Rates(100); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := e.Rates(50); err == nil {
		t.Fatal("negative window accepted")
	}
}

func TestScores(t *testing.T) {
	// Star topology: node 0 meets everyone, leaves meet only node 0.
	scores := Scores(mustRates(t, 5, star(5)), 100)
	for i := 1; i < 5; i++ {
		if scores[0] <= scores[i] {
			t.Fatalf("hub score %v not above leaf %v", scores[0], scores[i])
		}
	}
	// Leaf scores are equal by symmetry.
	if math.Abs(scores[1]-scores[4]) > 1e-12 {
		t.Fatalf("leaf scores differ: %v vs %v", scores[1], scores[4])
	}
	// All scores in [0,1].
	for i, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score[%d] = %v outside [0,1]", i, s)
		}
	}
}

func TestScoresSingleNode(t *testing.T) {
	scores := Scores(mustRates(t, 1, nil), 100)
	if len(scores) != 1 || scores[0] != 0 {
		t.Fatalf("scores = %v", scores)
	}
}

func TestRank(t *testing.T) {
	ids := Rank([]float64{0.1, 0.9, 0.5, 0.9})
	want := []trace.NodeID{1, 3, 2, 0} // tie between 1 and 3 broken by ID
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("rank = %v, want %v", ids, want)
		}
	}
}

func TestSelectCachingNodesStar(t *testing.T) {
	sel, err := SelectCachingNodes(mustRates(t, 5, star(5)), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sel[0] != 0 {
		t.Fatalf("selected %v, want the hub 0", sel)
	}
}

func TestSelectCachingNodesCoversCommunities(t *testing.T) {
	// Two disjoint cliques {0,1,2} and {3,4,5}; selecting 2 nodes must
	// take one from each clique even though all six have equal centrality.
	pairs := make(map[[2]trace.NodeID]float64)
	for _, pair := range [][2]trace.NodeID{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}} {
		pairs[pair] = 0.5
	}
	sel, err := SelectCachingNodes(mustRates(t, 6, pairs), 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	inFirst := func(id trace.NodeID) bool { return id <= 2 }
	if inFirst(sel[0]) == inFirst(sel[1]) {
		t.Fatalf("both selections %v in the same clique", sel)
	}
}

func TestSelectCachingNodesBounds(t *testing.T) {
	m := mustRates(t, 4, nil)
	if _, err := SelectCachingNodes(m, 100, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := SelectCachingNodes(m, 100, 5); err == nil {
		t.Fatal("k>n accepted")
	}
	sel, err := SelectCachingNodes(m, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 4 {
		t.Fatalf("selected %d, want 4", len(sel))
	}
}

// TestSelectRejectsBadWindow: a window that is not a finite positive
// number is an error under every entry point and placement, not a panic
// (NaN gains) or a silent all-zero answer (zero and negative windows).
func TestSelectRejectsBadWindow(t *testing.T) {
	m := mustRates(t, 5, star(5))
	for _, w := range []float64{math.NaN(), 0, -1, math.Inf(1)} {
		if _, err := SelectCachingNodes(m, w, 2); err == nil {
			t.Errorf("SelectCachingNodes accepted window %v", w)
		}
		if _, err := SelectCachingNodesExcluding(m, w, 2, map[trace.NodeID]bool{0: true}); err == nil {
			t.Errorf("SelectCachingNodesExcluding accepted window %v", w)
		}
		for _, p := range []Placement{PlaceGreedyCoverage, PlaceTopCentrality, PlaceRandom} {
			if _, err := Select(p, m, w, 2, nil, 1); err == nil {
				t.Errorf("Select(%v) accepted window %v", p, w)
			}
		}
	}
}

// Property: selections are distinct, in range, and deterministic.
func TestSelectCachingNodesProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		g := &mobility.HeterogeneousExp{
			TraceName: "p", N: 15, Duration: 5 * mobility.Day,
			MeanRate: 4.0 / mobility.Day, RateShape: 0.7, PairFraction: 0.7, MeanContactDur: 60,
		}
		tr, err := g.Generate(seed)
		if err != nil {
			return false
		}
		m, err := FromTrace(tr, 0, tr.Duration)
		if err != nil {
			return false
		}
		k := 1 + int(kRaw%10)
		a, err := SelectCachingNodes(m, 3600, k)
		if err != nil {
			return false
		}
		b, err := SelectCachingNodes(m, 3600, k)
		if err != nil {
			return false
		}
		seen := make(map[trace.NodeID]bool)
		for i := range a {
			if a[i] != b[i] {
				return false // non-deterministic
			}
			if a[i] < 0 || int(a[i]) >= 15 || seen[a[i]] {
				return false
			}
			seen[a[i]] = true
		}
		return len(a) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionPrefersHubsOnCommunityTrace(t *testing.T) {
	g := &mobility.Community{
		TraceName: "c", N: 30, Duration: 20 * mobility.Day, Communities: 3,
		IntraRate: 6.0 / mobility.Day, InterRate: 0.5 / mobility.Day, RateShape: 0.8,
		InterPairFraction: 0.5, HubFraction: 0.1, HubBoost: 4, MeanContactDur: 120,
	}
	tr, err := g.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromTrace(tr, 0, tr.Duration)
	if err != nil {
		t.Fatal(err)
	}
	scores := Scores(m, 6*mobility.Hour)
	sel, err := SelectCachingNodes(m, 6*mobility.Hour, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every selected node should be in the top half by centrality.
	rank := Rank(scores)
	pos := make(map[trace.NodeID]int)
	for i, id := range rank {
		pos[id] = i
	}
	for _, id := range sel {
		if pos[id] >= 15 {
			t.Fatalf("selected node %d is rank %d of 30", id, pos[id])
		}
	}
}
