package mobility

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"freshcache/internal/trace"
)

// propertyGenerators enumerates every Generator the package exports — each
// preset, each model at a hand-built size, the wrappers (Diurnal, Phases)
// and, for the models with a sparse O(active-pairs) sampling path, an
// instance above sparsePairThreshold so both code paths are under the same
// properties.
func propertyGenerators() map[string]Generator {
	gens := map[string]Generator{
		"hetexp": &HeterogeneousExp{
			TraceName: "prop-hetexp", N: 40, Duration: 2 * Day,
			MeanRate: 6.0 / Day, RateShape: 0.7, PairFraction: 0.5, MeanContactDur: 300,
		},
		"hetexp-sparse": &HeterogeneousExp{
			TraceName: "prop-hetexp-sparse", N: sparsePairThreshold + 100, Duration: 6 * Hour,
			MeanRate: 2.0 / Day, RateShape: 0.7, PairFraction: 0.002, MeanContactDur: 120,
		},
		"community": &Community{
			TraceName: "prop-community", N: 60, Duration: 2 * Day, Communities: 4,
			IntraRate: 8.0 / Day, InterRate: 1.0 / Day, RateShape: 0.8,
			InterPairFraction: 0.5, HubFraction: 0.1, HubBoost: 2.5, MeanContactDur: 200,
		},
		"community-sparse": &Community{
			TraceName: "prop-community-sparse", N: sparsePairThreshold + 176, Duration: 6 * Hour,
			IntraRate: 4.0 / Day, InterRate: 1.0 / Day, RateShape: 0.8, Communities: 60,
			InterPairFraction: 0.005, HubFraction: 0.05, HubBoost: 3, MeanContactDur: 120,
		},
		"drifting":          DriftingCommunity(40, Day),
		"diurnal-community": RealityLike(),
	}
	for name, ctor := range Presets() {
		gens["preset-"+name] = ctor()
	}
	return gens
}

// checkTraceProperties asserts the invariants every generated trace must
// hold, independently of trace.Validate (so a future Validate relaxation
// cannot silently weaken the generators' contract).
func checkTraceProperties(t *testing.T, tr *trace.Trace) {
	t.Helper()
	if tr.N < 2 {
		t.Fatalf("trace has %d nodes", tr.N)
	}
	if tr.Duration <= 0 {
		t.Fatalf("trace duration %v", tr.Duration)
	}
	if len(tr.Contacts) == 0 {
		t.Fatal("generator produced no contacts")
	}
	sorted := sort.SliceIsSorted(tr.Contacts, func(i, j int) bool {
		a, b := tr.Contacts[i], tr.Contacts[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.End < b.End
	})
	if !sorted {
		t.Error("contacts not sorted by (Start, A, B, End)")
	}
	for i, c := range tr.Contacts {
		if c.A == c.B {
			t.Fatalf("contact #%d: self-contact on node %d", i, c.A)
		}
		if c.A > c.B {
			t.Fatalf("contact #%d: endpoints not canonical (A=%d > B=%d)", i, c.A, c.B)
		}
		if c.A < 0 || int(c.A) >= tr.N || c.B < 0 || int(c.B) >= tr.N {
			t.Fatalf("contact #%d: node out of range (%d,%d) with N=%d", i, c.A, c.B, tr.N)
		}
		if c.Start < 0 || c.End <= c.Start || c.End > tr.Duration {
			t.Fatalf("contact #%d: interval [%v,%v) outside [0,%v]", i, c.Start, c.End, tr.Duration)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// encode serializes a trace so regeneration can be compared byte for byte.
func encode(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// TestGeneratorProperties is the shared property harness: every generator,
// across several seeds, must produce a trace that is sorted, in range,
// self-contact-free and byte-identical when regenerated from the same
// seed.
func TestGeneratorProperties(t *testing.T) {
	seeds := []int64{1, 2, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for name, gen := range propertyGenerators() {
		gen := gen
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				tr, err := gen.Generate(seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				checkTraceProperties(t, tr)
				again, err := gen.Generate(seed)
				if err != nil {
					t.Fatalf("seed %d regeneration: %v", seed, err)
				}
				if !bytes.Equal(encode(t, tr), encode(t, again)) {
					t.Fatalf("seed %d: regeneration is not byte-identical", seed)
				}
			}
		})
	}
}

// TestGeneratorSeedsDiffer guards the other direction: distinct seeds must
// not collapse onto the same trace (a seed-plumbing bug would make every
// "independent" sweep replicate identical).
func TestGeneratorSeedsDiffer(t *testing.T) {
	for name, gen := range propertyGenerators() {
		gen := gen
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a, err := gen.Generate(7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := gen.Generate(8)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(encode(t, a), encode(t, b)) {
				t.Fatal("seeds 7 and 8 produced byte-identical traces")
			}
		})
	}
}

// TestSparseSamplingMatchesDense cross-checks the O(active-pairs) path
// against the exhaustive pair loop on the same model: the two samplers
// draw different RNG streams, so traces differ contact-for-contact, but
// aggregate statistics (active pair count, contacts per pair) must agree
// within sampling tolerance.
func TestSparseSamplingMatchesDense(t *testing.T) {
	const n = sparsePairThreshold + 100 // sparse path engages
	base := HeterogeneousExp{
		TraceName: "xcheck", N: n, Duration: Day,
		MeanRate: 4.0 / Day, RateShape: 1.0, PairFraction: 0.004, MeanContactDur: 60,
	}
	pairStats := func(tr *trace.Trace) (pairs int, contacts int) {
		seen := map[int]bool{}
		for _, c := range tr.Contacts {
			seen[trace.PairKey(c.A, c.B, tr.N)] = true
		}
		return len(seen), len(tr.Contacts)
	}
	sparse := base
	str, err := sparse.Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	// Forcing the dense loop: PairFraction above the 0.5 gate is the only
	// lever without exporting internals, so compare both against the
	// analytical expectation instead of each other.
	sp, sc := pairStats(str)
	wantPairs := float64(pairCount(n)) * base.PairFraction
	if ratio := float64(sp) / wantPairs; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("sparse path activated %d pairs, want ≈%.0f", sp, wantPairs)
	}
	// Each active pair contributes ≈ rate·duration contacts on average.
	wantContacts := wantPairs * base.MeanRate * base.Duration
	if ratio := float64(sc) / wantContacts; ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("sparse path emitted %d contacts, want ≈%.0f", sc, wantContacts)
	}
}

// TestSampleIndicesMatchesRejectionLoop holds the batched sampler to the
// plain rejection loop: draw one index at a time, skip it if rejected or
// already held in a hash set, stop at k, then sort. The indices must be
// the loop's, and so must the number of draws, which the next draw from
// each RNG shows. The cases include every index of a small range, where
// repeats are the rule, and a filter that accepts exactly k indices.
func TestSampleIndicesMatchesRejectionLoop(t *testing.T) {
	loop := func(rng *rand.Rand, total, k int64, accept func(int64) bool) []int64 {
		held := make(map[int64]bool)
		idx := []int64{}
		for int64(len(idx)) < k {
			c := rng.Int63n(total)
			if accept != nil && !accept(c) || held[c] {
				continue
			}
			held[c] = true
			idx = append(idx, c)
		}
		slices.Sort(idx)
		return idx
	}
	odd := func(c int64) bool { return c%2 == 1 }
	for _, tc := range []struct {
		total, k int64
		accept   func(int64) bool
	}{
		{10, 0, nil}, {1, 1, nil}, {10, 10, nil}, {1000, 900, nil}, {1_000_000, 5000, nil},
		{1000, 400, odd}, {1000, 500, odd}, {1 << 40, 20_000, odd},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			if g, w := sampleIndices(got, tc.total, tc.k, tc.accept), loop(want, tc.total, tc.k, tc.accept); !slices.Equal(g, w) {
				t.Fatalf("total %d, k %d, seed %d: sampled %d indices %v…, the loop %d %v…", tc.total, tc.k, seed, len(g), g[:min(len(g), 5)], len(w), w[:min(len(w), 5)])
			}
			if got.Int63() != want.Int63() {
				t.Fatalf("total %d, k %d, seed %d: the sampler and the loop took different numbers of draws", tc.total, tc.k, seed)
			}
		}
	}
}

// TestPairIndexRoundTrip pins the pair-index codec the sparse samplers
// share: every (a,b) with a<b maps to a distinct index in [0, C(n,2)) and
// decodes back exactly.
func TestPairIndexRoundTrip(t *testing.T) {
	for _, n := range []int{2, 3, 7, 64, 1031} {
		total := pairCount(n)
		if want := int64(n) * int64(n-1) / 2; total != want {
			t.Fatalf("pairCount(%d) = %d, want %d", n, total, want)
		}
		if n > 100 {
			// Spot-check large n: boundaries plus a stride through the middle.
			for k := int64(0); k < total; k += total/997 + 1 {
				a, b := pairFromIndex(k, n)
				if a < 0 || b <= a || b >= n {
					t.Fatalf("pairFromIndex(%d, %d) = (%d,%d) out of range", k, n, a, b)
				}
				if back := pairOffset(int64(a), int64(n)) + int64(b-a-1); back != k {
					t.Fatalf("pairFromIndex(%d, %d) = (%d,%d), encodes back to %d", k, n, a, b, back)
				}
			}
			continue
		}
		seen := make(map[[2]int]bool, total)
		for k := int64(0); k < total; k++ {
			a, b := pairFromIndex(k, n)
			if a < 0 || b <= a || b >= n {
				t.Fatalf("pairFromIndex(%d, %d) = (%d,%d) out of range", k, n, a, b)
			}
			if seen[[2]int{a, b}] {
				t.Fatalf("pairFromIndex(%d, %d) repeats (%d,%d)", k, n, a, b)
			}
			seen[[2]int{a, b}] = true
		}
		if len(seen) != int(total) {
			t.Fatalf("n=%d: %d distinct pairs decoded, want %d", n, len(seen), total)
		}
	}
}
