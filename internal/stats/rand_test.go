package stats

import (
	"math"
	"testing"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	a := Derive(7, "mobility")
	b := Derive(7, "workload")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams look correlated: %d/100 identical draws", same)
	}
}

func TestDeriveStableAcrossCalls(t *testing.T) {
	x := Derive(7, "mobility").Float64()
	y := Derive(7, "mobility").Float64()
	if x != y {
		t.Fatalf("Derive not stable: %v != %v", x, y)
	}
}

func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(42, "E2", "infocom-like", "0", "direct")
	b := DeriveSeed(42, "E2", "infocom-like", "0", "direct")
	if a != b {
		t.Fatalf("DeriveSeed not stable: %v != %v", a, b)
	}
}

func TestDeriveSeedDistinguishesCells(t *testing.T) {
	seen := map[int64][]string{}
	cells := [][]string{
		{"E2", "infocom-like", "0", "direct"},
		{"E2", "infocom-like", "1", "direct"},
		{"E2", "infocom-like", "0", "epidemic"},
		{"E2", "reality-like", "0", "direct"},
		{"E3", "infocom-like", "0", "direct"},
	}
	for _, labels := range cells {
		s := DeriveSeed(42, labels...)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %v and %v", prev, labels)
		}
		seen[s] = labels
	}
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Fatal("base seed ignored")
	}
}

func TestDeriveSeedLabelBoundaries(t *testing.T) {
	if DeriveSeed(0, "ab", "c") == DeriveSeed(0, "a", "bc") {
		t.Fatal("label boundaries not separated")
	}
}

func TestExpMean(t *testing.T) {
	rng := NewRNG(1)
	const rate = 2.5
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := Exp(rng, rate)
		if v < 0 {
			t.Fatalf("negative exponential draw %v", v)
		}
		sum += v
	}
	mean := sum / n
	want := 1 / rate
	if math.Abs(mean-want) > 0.01*want {
		t.Fatalf("exp mean = %v, want ~%v", mean, want)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	Exp(NewRNG(1), 0)
}

func TestGammaMoments(t *testing.T) {
	rng := NewRNG(4)
	for _, tc := range []struct{ shape, scale float64 }{
		{0.5, 2}, {1, 1}, {3, 0.5}, {9, 4},
	} {
		const n = 100000
		var sum, ss float64
		for i := 0; i < n; i++ {
			v := Gamma(rng, tc.shape, tc.scale)
			if v < 0 {
				t.Fatalf("negative gamma draw")
			}
			sum += v
			ss += v * v
		}
		mean := sum / n
		wantMean := tc.shape * tc.scale
		if math.Abs(mean-wantMean) > 0.05*wantMean {
			t.Errorf("gamma(%v,%v) mean = %v, want ~%v", tc.shape, tc.scale, mean, wantMean)
		}
		variance := ss/n - mean*mean
		wantVar := tc.shape * tc.scale * tc.scale
		if math.Abs(variance-wantVar) > 0.1*wantVar {
			t.Errorf("gamma(%v,%v) var = %v, want ~%v", tc.shape, tc.scale, variance, wantVar)
		}
	}
}

func TestZipfRange(t *testing.T) {
	rng := NewRNG(7)
	draw := Zipf(rng, 1.2, 10)
	counts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		r := draw()
		if r < 0 || r >= 10 {
			t.Fatalf("zipf rank %d out of range", r)
		}
		counts[r]++
	}
	// Rank 0 must dominate rank 9 clearly.
	if counts[0] <= counts[9]*2 {
		t.Fatalf("zipf not skewed: counts[0]=%d counts[9]=%d", counts[0], counts[9])
	}
}

func TestZipfClampsExponent(t *testing.T) {
	rng := NewRNG(8)
	draw := Zipf(rng, 0.5, 5) // exponent in (0,1] clamps, must not panic
	for i := 0; i < 100; i++ {
		if r := draw(); r < 0 || r >= 5 {
			t.Fatalf("rank %d out of range", r)
		}
	}
}

func TestZipfPanicsOnNonPositiveExponent(t *testing.T) {
	for _, s := range []float64{0, -1} {
		s := s
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Zipf(s=%v) did not panic", s)
				}
			}()
			Zipf(NewRNG(8), s, 5)
		}()
	}
}
