package expt

import (
	"runtime"
	"strconv"
	"testing"

	"freshcache/internal/centrality"
	"freshcache/internal/trace"
)

// TestSparsePathAvoidsQuadraticAllocation is the "no n² anywhere"
// assertion behind E21: building the sparse rate structures at a node
// count whose dense matrix would need ~80 GB must cost only what the
// observed pairs cost. A single accidental n*n allocation on this path
// fails the byte budget by four orders of magnitude (or aborts the test
// process outright).
func TestSparsePathAvoidsQuadraticAllocation(t *testing.T) {
	const n = 100_000 // dense would be 8·10¹⁰ bytes; sparse sees 3 pairs
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	est, err := centrality.NewEstimator(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	est.Observe(0, 99_999)
	est.Observe(12_345, 54_321)
	est.Observe(0, 99_999)
	rates, err := est.Rates(1000)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Name: "huge", N: n, Duration: 100, Contacts: []trace.Contact{
		{A: 7, B: 70_007, Start: 1, End: 2},
		{A: 8, B: 80_008, Start: 3, End: 4},
	}}
	ft, err := centrality.FromTrace(tr, 0, 100)
	if err != nil {
		t.Fatal(err)
	}

	runtime.ReadMemStats(&after)
	if got := rates.Rate(0, 99_999); got != 2.0/1000 {
		t.Fatalf("Rate(0,99999) = %v", got)
	}
	if got := ft.Rate(8, 80_008); got != 1.0/100 {
		t.Fatalf("FromTrace rate = %v", got)
	}
	// Generous bound: the two sparse structures at n=100k cost a few MB of
	// per-node slice headers; any n² structure costs tens of GB.
	const limit = 64 << 20
	if delta := after.TotalAlloc - before.TotalAlloc; delta > limit {
		t.Fatalf("sparse path allocated %d bytes at n=%d (limit %d): something is quadratic", delta, n, limit)
	}
}

// TestE21QuickPipeline runs the quick-size E21 scenario end to end and
// pins the table shape plus the basic sanity of the result: the trace is
// large-N, and contacts and events flow.
func TestE21QuickPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 2000-node simulation")
	}
	e, err := ByID("E21")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(Options{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("%d tables", len(tables))
	}
	tb := tables[0]
	if len(tb.Rows) != 1 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	row := tb.Rows[0]
	if len(row) != len(tb.Header) {
		t.Fatalf("ragged row: %v vs header %v", row, tb.Header)
	}
	cell := func(name string) string {
		for i, h := range tb.Header {
			if h == name {
				return row[i]
			}
		}
		t.Fatalf("no %q column in %v", name, tb.Header)
		return ""
	}
	if nodes, _ := strconv.Atoi(cell("nodes")); nodes != largeNQuickNodes {
		t.Fatalf("nodes = %q, want %d", cell("nodes"), largeNQuickNodes)
	}
	if contacts, _ := strconv.Atoi(cell("contacts")); contacts < 100_000 {
		t.Fatalf("suspiciously few contacts: %q", cell("contacts"))
	}
	if events, _ := strconv.Atoi(cell("events")); events <= 0 {
		t.Fatalf("no simulated events: %q", cell("events"))
	}
}

// TestE21FullSizeWithinMemoryBudget runs the full 10k-node E21 and
// asserts the peak heap stays far below the 2 GB budget the CI smoke job
// enforces on RSS. Skipped in short mode (a few seconds of wall time).
func TestE21FullSizeWithinMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 10000-node simulation")
	}
	e, err := ByID("E21")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(Options{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	const budget = 2 << 30
	if m.HeapSys > budget {
		t.Fatalf("heap reached %d bytes, budget %d", m.HeapSys, uint64(budget))
	}
}

// TestLargeNTraceScalesLinearly pins the O(contacts) workload property:
// doubling N on the E21 community model roughly doubles the contact
// count (constant per-node load), rather than quadrupling it as a dense
// pair model would.
func TestLargeNTraceScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two large traces")
	}
	small, err := largeNTrace(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := largeNTrace(4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(big.Contacts)) / float64(len(small.Contacts))
	if ratio < 1.7 || ratio > 2.4 {
		t.Fatalf("contact growth ratio %v for 2× nodes; want ≈2 (linear)", ratio)
	}
}

// BenchmarkLargeNRateEstimation measures the rate-estimation layer of the
// engine's warm-up, as Engine.Run does it: one estimator observes every
// contact up to the epoch at 30% of the trace, then builds the rate
// store. largen-5k is the largen-5k benchmark workload's trace (E21 at
// 5000 nodes, seed 42); reality-like is the 97-node preset at seed 42.
func BenchmarkLargeNRateEstimation(b *testing.B) {
	for _, bc := range []struct {
		name string
		gen  func() (*trace.Trace, error)
	}{
		{"largen-5k", func() (*trace.Trace, error) { return largeNTrace(5000, 42) }},
		{"reality-like", func() (*trace.Trace, error) { return genTrace("reality-like", 42) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr, err := bc.gen()
			if err != nil {
				b.Fatal(err)
			}
			epoch := 0.3 * tr.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est, err := centrality.NewEstimator(tr.N, 0)
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range tr.Contacts {
					if c.Start > epoch {
						break
					}
					est.Observe(c.A, c.B)
				}
				if _, err := est.Rates(epoch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLargeNTraceGeneration measures the generation layer of the
// largen-5k benchmark workload: the E21 community trace at 5000 nodes
// (about 1.2M contacts), drawn and normalized.
func BenchmarkLargeNTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := largeNTrace(5000, 42); err != nil {
			b.Fatal(err)
		}
	}
}
