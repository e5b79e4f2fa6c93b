package centrality

import (
	"math"
	"testing"

	"freshcache/internal/mobility"
	"freshcache/internal/trace"
)

func TestDistributedOwnPairsExact(t *testing.T) {
	d := NewDistributedEstimator(4, 0)
	d.Observe(0, 1, 10)
	d.Observe(0, 1, 20)
	d.Observe(0, 2, 30)
	v, err := d.View(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Rate(0, 1); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("rate(0,1) = %v, want 0.02", got)
	}
	if got := v.Rate(0, 2); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("rate(0,2) = %v, want 0.01", got)
	}
	if got := v.Rate(0, 3); got != 0 {
		t.Fatalf("rate(0,3) = %v, want 0", got)
	}
	if got := v.Rate(1, 1); got != 0 {
		t.Fatalf("self rate = %v", got)
	}
}

func TestDistributedDirectExchange(t *testing.T) {
	d := NewDistributedEstimator(4, 0)
	// 1 and 2 meet repeatedly; 0 learns about it only when meeting 1.
	d.Observe(1, 2, 10)
	d.Observe(1, 2, 20)

	v0, err := d.View(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := v0.Rate(1, 2); got != 0 {
		t.Fatalf("node 0 knows rate(1,2)=%v before any contact", got)
	}

	d.Observe(0, 1, 30)
	v0, err = d.View(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := v0.Rate(1, 2); math.Abs(got-2.0/50) > 1e-12 {
		t.Fatalf("after meeting 1: rate(1,2) = %v, want 0.04", got)
	}
}

func TestDistributedTransitiveExchange(t *testing.T) {
	d := NewDistributedEstimator(5, 0)
	// 3 and 4 meet; 2 meets 3 (learns); 1 meets 2 (learns transitively);
	// 0 meets 1 (learns third-hand).
	d.Observe(3, 4, 10)
	d.Observe(2, 3, 20)
	d.Observe(1, 2, 30)
	d.Observe(0, 1, 40)

	v0, err := d.View(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := v0.Rate(3, 4); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("third-hand rate(3,4) = %v, want 0.01", got)
	}
}

func TestDistributedFreshestWins(t *testing.T) {
	d := NewDistributedEstimator(4, 0)
	// 0 learns an early snapshot of node 2's vector, then a fresher one
	// through node 3.
	d.Observe(1, 2, 10) // 2's count with 1 becomes 1
	d.Observe(0, 2, 15) // 0 gets 2's snapshot (count 1 with 1, 1 with 0)
	d.Observe(1, 2, 20) // 2's count with 1 becomes 2
	d.Observe(2, 3, 25) // 3 gets fresh snapshot of 2
	d.Observe(0, 3, 30) // 0 should upgrade via 3

	v0, err := d.View(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := v0.Rate(1, 2); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("rate(1,2) = %v, want fresh 0.02", got)
	}
}

func TestDistributedStaleness(t *testing.T) {
	d := NewDistributedEstimator(3, 0)
	d.Observe(0, 1, 10) // 0 and 1 exchange
	d.Observe(1, 2, 20)
	d.Observe(1, 2, 30)
	// Node 0 still believes 1-2 never met (its snapshot of 1 predates).
	v0, err := d.View(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := v0.Rate(1, 2); got != 0 {
		t.Fatalf("node 0 has clairvoyant rate(1,2)=%v", got)
	}
	// The oracle-equivalent owner view is exact though.
	v1, err := d.View(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := v1.Rate(1, 2); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("own rate(1,2) = %v", got)
	}
}

func TestDistributedViewValidation(t *testing.T) {
	d := NewDistributedEstimator(3, 50)
	if _, err := d.View(5, 100); err == nil {
		t.Fatal("bad owner accepted")
	}
	if _, err := d.View(0, 50); err == nil {
		t.Fatal("zero window accepted")
	}
}

// On a dense trace, every node's local view must converge toward the
// oracle estimator for well-observed pairs.
func TestDistributedConvergesToOracle(t *testing.T) {
	g := &mobility.HeterogeneousExp{
		TraceName: "conv", N: 20, Duration: 20 * mobility.Day,
		MeanRate: 6.0 / mobility.Day, RateShape: 1, PairFraction: 1, MeanContactDur: 60,
	}
	tr, err := g.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDistributedEstimator(tr.N, 0)
	for _, c := range tr.Contacts {
		d.Observe(c.A, c.B, c.Start)
	}
	oracle, err := FromTrace(tr, 0, tr.Duration)
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.View(7, tr.Duration)
	if err != nil {
		t.Fatal(err)
	}
	var sumErr, count float64
	for a := 0; a < tr.N; a++ {
		for b := a + 1; b < tr.N; b++ {
			o := oracle.Rate(trace.NodeID(a), trace.NodeID(b))
			if o == 0 {
				continue
			}
			got := v.Rate(trace.NodeID(a), trace.NodeID(b))
			sumErr += math.Abs(got-o) / o
			count++
		}
	}
	if meanErr := sumErr / count; meanErr > 0.1 {
		t.Fatalf("mean relative error vs oracle = %v; gossip not converging", meanErr)
	}
}

func TestDistributedObserveDeterministic(t *testing.T) {
	build := func() RateView {
		d := NewDistributedEstimator(6, 0)
		seq := [][3]float64{{0, 1, 5}, {1, 2, 10}, {3, 4, 12}, {2, 3, 20}, {0, 5, 25}, {4, 5, 30}}
		for _, s := range seq {
			d.Observe(trace.NodeID(s[0]), trace.NodeID(s[1]), s[2])
		}
		v, err := d.View(0, 100)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b := build(), build()
	for x := 0; x < 6; x++ {
		for y := 0; y < 6; y++ {
			if a.Rate(trace.NodeID(x), trace.NodeID(y)) != b.Rate(trace.NodeID(x), trace.NodeID(y)) {
				t.Fatalf("nondeterministic at (%d,%d)", x, y)
			}
		}
	}
}
