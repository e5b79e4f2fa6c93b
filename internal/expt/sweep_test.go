package expt

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshcache/internal/trace"
)

// withProcs raises GOMAXPROCS for the test so the pool (capped at
// min(GOMAXPROCS, Parallel)) genuinely opens to the requested width even
// on single-CPU machines.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestSweepGridOrderDeterministic(t *testing.T) {
	s := Sweep{
		Experiment: "T", Presets: []string{"a", "b"}, Points: 2,
		Schemes: []string{"x", "y"}, Replicates: 2, BaseSeed: 7,
	}
	cells := s.cells()
	if len(cells) != 2*2*2*2 {
		t.Fatalf("cell count = %d", len(cells))
	}
	// Preset-major, then point, scheme, replicate.
	want := []Cell{
		{Preset: "a", Point: 0, Scheme: "x", Replicate: 0},
		{Preset: "a", Point: 0, Scheme: "x", Replicate: 1},
		{Preset: "a", Point: 0, Scheme: "y", Replicate: 0},
		{Preset: "a", Point: 0, Scheme: "y", Replicate: 1},
		{Preset: "a", Point: 1, Scheme: "x", Replicate: 0},
	}
	for i, w := range want {
		c := cells[i]
		if c.Preset != w.Preset || c.Point != w.Point || c.Scheme != w.Scheme || c.Replicate != w.Replicate {
			t.Fatalf("cell %d = %+v, want %+v", i, c, w)
		}
	}
	// Seeds are stable across enumerations and unique across cells.
	again := s.cells()
	seen := map[int64]bool{}
	for i := range cells {
		if cells[i].Seed != again[i].Seed {
			t.Fatalf("cell %d seed unstable", i)
		}
		if seen[cells[i].Seed] {
			t.Fatalf("duplicate seed at cell %d", i)
		}
		seen[cells[i].Seed] = true
	}
	// Trace seed depends only on the base seed and replicate, via the
	// namespaced derivation (not the old aliasing base+replicate sum).
	for _, c := range cells {
		if c.TraceSeed != TraceSeedFor(s.BaseSeed, c.Replicate) {
			t.Fatalf("trace seed %d for replicate %d", c.TraceSeed, c.Replicate)
		}
		if c.TraceSeed == s.BaseSeed+int64(c.Replicate) {
			t.Fatalf("trace seed for replicate %d still uses the aliasing base+rep formula", c.Replicate)
		}
	}
	// The aliasing the fix removes: base S replicate 1 must no longer share
	// a trace stream with base S+1 replicate 0.
	if TraceSeedFor(7, 1) == TraceSeedFor(8, 0) {
		t.Fatal("TraceSeedFor still aliases (base, rep) pairs across base seeds")
	}
}

func TestSweepRunIndexing(t *testing.T) {
	s := Sweep{
		Experiment: "T", Presets: []string{"a", "b"}, Points: 3,
		Schemes: []string{"x", "y"}, BaseSeed: 1,
	}
	res, err := s.Run(func(c Cell) ([]float64, error) {
		pi := 0
		if c.Preset == "b" {
			pi = 1
		}
		si := 0
		if c.Scheme == "y" {
			si = 1
		}
		return []float64{float64(pi*100 + c.Point*10 + si)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics() != 1 || res.Replicates() != 1 {
		t.Fatalf("metrics=%d reps=%d", res.Metrics(), res.Replicates())
	}
	for pi := 0; pi < 2; pi++ {
		for pt := 0; pt < 3; pt++ {
			for si := 0; si < 2; si++ {
				want := float64(pi*100 + pt*10 + si)
				if got := res.Mean(pi, pt, si, 0); got != want {
					t.Fatalf("Mean(%d,%d,%d) = %v, want %v", pi, pt, si, got, want)
				}
			}
		}
	}
	if v, ok := res.Value(0, 1, 1, 0).(float64); !ok || v != 11 {
		t.Fatalf("single-replicate Value = %v", res.Value(0, 1, 1, 0))
	}
}

func TestSweepReplicateAggregation(t *testing.T) {
	s := Sweep{Experiment: "T", Presets: []string{"a"}, Points: 1, Replicates: 4, BaseSeed: 1}
	res, err := s.Run(func(c Cell) ([]float64, error) {
		return []float64{float64(2 * c.Replicate)}, nil // 0, 2, 4, 6
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Mean(0, 0, 0, 0); m != 3 {
		t.Fatalf("mean = %v", m)
	}
	// Sample sd of {0,2,4,6} ≈ 2.582; stderr = sd/2 ≈ 1.291.
	if se := res.Stderr(0, 0, 0, 0); se < 1.29 || se > 1.30 {
		t.Fatalf("stderr = %v", se)
	}
	if ci := res.CI95(0, 0, 0, 0); ci <= 0 {
		t.Fatalf("ci95 = %v", ci)
	}
	v, ok := res.Value(0, 0, 0, 0).(string)
	if !ok || !strings.Contains(v, "±") || !strings.HasPrefix(v, "3") {
		t.Fatalf("replicated Value = %v", res.Value(0, 0, 0, 0))
	}
}

func TestSweepErrorPropagation(t *testing.T) {
	s := Sweep{Experiment: "T", Presets: []string{"a"}, Points: 4, Parallel: 2, BaseSeed: 1}
	boom := errors.New("boom")
	_, err := s.Run(func(c Cell) ([]float64, error) {
		if c.Point == 2 {
			return nil, boom
		}
		return []float64{1}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	for _, part := range []string{"T", "preset=a", "point=2"} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("error %q missing %q", err, part)
		}
	}
}

func TestSweepMetricWidthMismatch(t *testing.T) {
	s := Sweep{Experiment: "T", Presets: []string{"a"}, Points: 2, Parallel: 1, BaseSeed: 1}
	_, err := s.Run(func(c Cell) ([]float64, error) {
		return make([]float64, 1+c.Point), nil
	})
	if err == nil || !strings.Contains(err.Error(), "metric vector length") {
		t.Fatalf("err = %v", err)
	}
}

func TestSweepWorkerBound(t *testing.T) {
	withProcs(t, 8)
	s := Sweep{Experiment: "T", Presets: []string{"a"}, Points: 64, Parallel: 2, BaseSeed: 1}
	var inFlight, peak atomic.Int32
	block := make(chan struct{})
	var once sync.Once
	_, err := s.Run(func(c Cell) ([]float64, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		once.Do(func() { close(block) })
		<-block // make overlap observable
		return []float64{1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d exceeds Parallel=2", p)
	}
}

func TestSweepEmptyGridRejected(t *testing.T) {
	if _, err := (Sweep{Experiment: "T", Presets: []string{"a"}}).Run(nil); err == nil {
		t.Fatal("zero points accepted")
	}
	if _, err := (Sweep{Experiment: "T", Points: 1}).Run(nil); err == nil {
		t.Fatal("zero presets accepted")
	}
}

func TestTraceCacheSingleFlight(t *testing.T) {
	c := NewTraceCache()
	var gens atomic.Int32
	gen := func(seed int64) (*trace.Trace, error) {
		gens.Add(1)
		return &trace.Trace{}, nil
	}
	var wg sync.WaitGroup
	results := make([]*trace.Trace, 16)
	for i := range results {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, _, err := c.Get("k", 1, gen)
			if err != nil {
				t.Error(err)
			}
			results[i] = tr
		}()
	}
	wg.Wait()
	if n := gens.Load(); n != 1 {
		t.Fatalf("generator ran %d times", n)
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("distinct trace instances returned")
		}
	}
	if _, _, err := c.Get("k", 2, gen); err != nil {
		t.Fatal(err)
	}
	if gens.Load() != 2 || c.Len() != 2 {
		t.Fatalf("gens=%d len=%d", gens.Load(), c.Len())
	}
}

func TestTraceCacheErrorCached(t *testing.T) {
	c := NewTraceCache()
	var gens atomic.Int32
	fail := func(seed int64) (*trace.Trace, error) {
		gens.Add(1)
		return nil, fmt.Errorf("gen failed")
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.Get("bad", 1, fail); err == nil {
			t.Fatal("error not surfaced")
		}
	}
	if n := gens.Load(); n != 1 {
		t.Fatalf("failed generator ran %d times", n)
	}
}

// renderExperiment runs one experiment and concatenates its rendered
// tables — the byte-identical surface the parallel runner must preserve.
func renderExperiment(t *testing.T, id string, parallel int) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(Options{Seed: 42, Quick: true, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range tables {
		b.WriteString(tab.Render())
	}
	return b.String()
}

// TestSweepDeterministicAcrossWorkers: the acceptance criterion — sweep
// tables are byte-identical at 1 worker and 8 workers.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	withProcs(t, 8)
	for _, id := range []string{"E2", "E8"} {
		id := id
		t.Run(id, func(t *testing.T) {
			seq := renderExperiment(t, id, 1)
			par := renderExperiment(t, id, 8)
			if seq != par {
				t.Fatalf("tables differ between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
			}
		})
	}
}

// TestSweepReplicatesDeterministic: replicated cells aggregate identically
// regardless of worker count.
func TestSweepReplicatesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	withProcs(t, 8)
	run := func(parallel int) string {
		e, err := ByID("E4")
		if err != nil {
			t.Fatal(err)
		}
		tables, err := e.Run(Options{Seed: 42, Quick: true, Parallel: parallel, Replicates: 2})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tab := range tables {
			b.WriteString(tab.Render())
		}
		return b.String()
	}
	seq, par := run(1), run(8)
	if seq != par {
		t.Fatalf("replicated tables differ:\n%s\nvs\n%s", seq, par)
	}
	if !strings.Contains(seq, "±") {
		t.Fatalf("replicated table missing ± cells:\n%s", seq)
	}
}

// TestReplicatesReachEverySimulatingExperiment: -replicates reaches every
// simulating experiment. At -quick, two replicates must change the table
// of each of E2–E21 against one (E1 runs no simulation).
func TestReplicatesReachEverySimulatingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite twice")
	}
	start := time.Now()
	render := func(e Experiment, reps int) string {
		tables, err := e.Run(Options{Seed: 42, Quick: true, Replicates: reps})
		if err != nil {
			t.Fatalf("%s at %d replicate(s): %v", e.ID, reps, err)
		}
		var b strings.Builder
		for _, tab := range tables {
			b.WriteString(tab.CSV())
		}
		return b.String()
	}
	for _, e := range All() {
		if e.ID == "E1" {
			continue
		}
		if one := render(e, 1); one == render(e, 2) {
			t.Errorf("%s: table unchanged by a second replicate:\n%s", e.ID, one)
		}
	}
	t.Logf("E2–E21 at one and two replicates: %v", time.Since(start).Round(time.Millisecond))
}
