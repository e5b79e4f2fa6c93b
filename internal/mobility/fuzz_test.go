package mobility

import (
	"math"
	"testing"
)

// FuzzGenerate explores the generator parameter space: whatever
// (clamped) parameters arrive, Generate must either reject them with an
// error or return a trace that passes the full property check — never
// panic, never emit out-of-range or unsorted contacts. The seed corpus
// runs as part of the normal test suite; `go test -fuzz=FuzzGenerate
// ./internal/mobility` explores further.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), 10, 1.0, 4.0, 0.8, 0.5, 60.0)
	f.Add(int64(42), 50, 3.0, 16.0, 0.6, 0.9, 300.0)
	f.Add(int64(7), 2, 0.1, 1.0, 1.5, 1.0, 1.0)
	f.Add(int64(0), 1100, 0.2, 2.0, 0.8, 0.002, 120.0) // sparse sampling path
	f.Add(int64(-3), 0, -1.0, 0.0, 0.0, 2.0, -5.0)     // invalid everything
	f.Add(int64(9), 30, 0.5, 8.0, 0.7, 0.001, 90.0)
	f.Add(int64(5), 20, math.Inf(1), 4.0, 0.8, 0.5, 60.0)
	f.Add(int64(5), 20, 1.0, math.NaN(), 0.8, 0.5, 60.0)
	f.Fuzz(func(t *testing.T, seed int64, n int, days, ratePerDay, shape, pairFrac, dur float64) {
		// A non-finite parameter is rejected. Only validation runs: a
		// generator handed one could run without end.
		for _, x := range []float64{days, ratePerDay, shape, pairFrac, dur} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				for _, g := range []interface{ validate() error }{
					&HeterogeneousExp{N: 10, Duration: days * Day, MeanRate: ratePerDay / Day,
						RateShape: shape, PairFraction: pairFrac, MeanContactDur: dur},
					&Community{N: 10, Duration: days * Day, Communities: 2, IntraRate: ratePerDay / Day,
						InterRate: ratePerDay / (4 * Day), RateShape: shape, InterPairFraction: pairFrac,
						HubFraction: 0.1, HubBoost: 2, MeanContactDur: dur},
				} {
					if err := g.validate(); err == nil {
						t.Fatalf("%T accepted days=%v rate=%v shape=%v pairs=%v dur=%v", g, days, ratePerDay, shape, pairFrac, dur)
					}
				}
				return
			}
		}
		// Clamp into a range where valid inputs stay cheap; invalid inputs
		// are left as-is so validation paths get fuzzed too.
		if n > 1200 {
			n = 1200
		}
		if days > 2 {
			days = 2
		}
		if ratePerDay > 20 {
			ratePerDay = 20
		}
		if pairFrac > 0 && pairFrac <= 1 {
			// Bound expected active pairs so one fuzz input can't ask for
			// millions of Poisson processes.
			if limit := 5000.0 / float64(pairCount(max(n, 2))); pairFrac > limit {
				pairFrac = limit
			}
		}
		gens := []Generator{
			&HeterogeneousExp{
				TraceName: "fuzz-hetexp", N: n, Duration: days * Day,
				MeanRate: ratePerDay / Day, RateShape: shape,
				PairFraction: pairFrac, MeanContactDur: dur,
			},
			&Community{
				TraceName: "fuzz-community", N: n, Duration: days * Day,
				Communities: n/10 + 1, IntraRate: ratePerDay / Day,
				InterRate: ratePerDay / (4 * Day), RateShape: shape,
				InterPairFraction: pairFrac, HubFraction: 0.1, HubBoost: 2,
				MeanContactDur: dur,
			},
		}
		for _, gen := range gens {
			tr, err := gen.Generate(seed)
			if err != nil {
				continue
			}
			if len(tr.Contacts) == 0 {
				continue // valid but empty traces are fine for the fuzzer
			}
			checkTraceProperties(t, tr)
		}
	})
}
