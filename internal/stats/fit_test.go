package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExpRateMLE(t *testing.T) {
	rng := NewRNG(10)
	const rate = 0.3
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = Exp(rng, rate)
	}
	got, err := ExpRateMLE(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-rate) > 0.02*rate {
		t.Fatalf("MLE rate = %v, want ~%v", got, rate)
	}
}

func TestExpRateMLEErrors(t *testing.T) {
	if _, err := ExpRateMLE(nil); err == nil {
		t.Error("empty sample: want error")
	}
	if _, err := ExpRateMLE([]float64{1, -2}); err == nil {
		t.Error("negative sample: want error")
	}
	if _, err := ExpRateMLE([]float64{0, 0}); err == nil {
		t.Error("zero total time: want error")
	}
}

func TestExpCDFValues(t *testing.T) {
	if got := ExpCDF(1, math.Log(2)); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("ExpCDF(1, ln2) = %v, want 0.5", got)
	}
	if got := ExpCDF(0, 5); got != 0 {
		t.Fatalf("zero rate: got %v, want 0", got)
	}
	if got := ExpCDF(1, 0); got != 0 {
		t.Fatalf("zero time: got %v, want 0", got)
	}
}

// Property: ExpCDF is a valid CDF — in [0,1] and monotone in t and rate.
func TestExpCDFProperties(t *testing.T) {
	f := func(rate, t1, t2 float64) bool {
		rate = 0.001 + math.Abs(rate)
		t1, t2 = math.Abs(t1), math.Abs(t2)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		p1, p2 := ExpCDF(rate, t1), ExpCDF(rate, t2)
		return p1 >= 0 && p2 <= 1 && p1 <= p2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHypoExpCDFAgainstMonteCarlo(t *testing.T) {
	rng := NewRNG(11)
	cases := []struct{ l1, l2, tt float64 }{
		{0.5, 0.5, 3},
		{0.2, 1.0, 5},
		{2.0, 0.1, 10},
		{1.0, 1.0000001, 2}, // near-equal rates hit the Erlang branch
	}
	for _, tc := range cases {
		const n = 200000
		hit := 0
		for i := 0; i < n; i++ {
			if Exp(rng, tc.l1)+Exp(rng, tc.l2) <= tc.tt {
				hit++
			}
		}
		mc := float64(hit) / n
		got := HypoExpCDF(tc.l1, tc.l2, tc.tt)
		if math.Abs(got-mc) > 0.01 {
			t.Errorf("HypoExpCDF(%v,%v,%v) = %v, Monte Carlo says %v", tc.l1, tc.l2, tc.tt, got, mc)
		}
	}
}

// Property: the two-hop delivery probability is a probability, is monotone
// in t, and is always below the one-hop probability of its faster leg
// (adding a hop cannot speed up delivery).
func TestHypoExpCDFProperties(t *testing.T) {
	f := func(a, b, t1, t2 float64) bool {
		l1 := 0.001 + math.Mod(math.Abs(a), 10)
		l2 := 0.001 + math.Mod(math.Abs(b), 10)
		t1, t2 = math.Abs(t1), math.Abs(t2)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		p1 := HypoExpCDF(l1, l2, t1)
		p2 := HypoExpCDF(l1, l2, t2)
		if p1 < 0 || p2 > 1 || p1 > p2+1e-9 {
			return false
		}
		// Two hops is never faster than either single hop.
		return p2 <= ExpCDF(l1, t2)+1e-9 && p2 <= ExpCDF(l2, t2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHypoExpCDFSymmetric(t *testing.T) {
	f := func(a, b, tt float64) bool {
		l1 := 0.001 + math.Mod(math.Abs(a), 10)
		l2 := 0.001 + math.Mod(math.Abs(b), 10)
		tt = math.Abs(tt)
		return math.Abs(HypoExpCDF(l1, l2, tt)-HypoExpCDF(l2, l1, tt)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpFitKSOnExponentialData(t *testing.T) {
	rng := NewRNG(21)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = Exp(rng, 0.05)
	}
	d, err := ExpFitKS(xs)
	if err != nil {
		t.Fatal(err)
	}
	// True exponential data: KS distance should be tiny.
	if d > 0.03 {
		t.Fatalf("KS distance on exponential data = %v", d)
	}
}

func TestExpFitKSOnNonExponentialData(t *testing.T) {
	rng := NewRNG(22)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = pareto(rng, 1, 1.2) // heavy-tailed: clearly not exponential
	}
	d, err := ExpFitKS(xs)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.1 {
		t.Fatalf("KS distance on Pareto data = %v; should be large", d)
	}
}

func TestExpFitKSErrors(t *testing.T) {
	if _, err := ExpFitKS(nil); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, err := ExpFitKS([]float64{1}); err == nil {
		t.Fatal("singleton accepted")
	}
	if _, err := ExpFitKS([]float64{1, -1}); err == nil {
		t.Fatal("negative sample accepted")
	}
}

// Property: the KS distance is in [0, 1].
func TestExpFitKSRange(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := NewRNG(seed)
		n := 2 + int(nRaw%100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = Exp(rng, 1) + pareto(rng, 0.1, 2)
		}
		d, err := ExpFitKS(xs)
		if err != nil {
			return false
		}
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// pareto draws from a Pareto (type I) distribution with minimum xm and
// tail index alpha: heavy-tailed data no exponential fits.
func pareto(rng *rand.Rand, xm, alpha float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}
