package expt

import (
	"bytes"
	"testing"

	"freshcache/internal/metrics"
	"freshcache/internal/obs"
)

// suiteExports holds every observability export of one experiment run,
// captured for byte-level comparison.
type suiteExports struct {
	events   []byte // event trace JSONL (unsampled: full event order)
	lineage  []byte // causal span tree JSONL
	timeline []byte // sim-time telemetry CSV
	om       []byte // OpenMetrics registry snapshot
	tables   []string
}

// runExports runs one experiment with full observability under either the
// two-stream scheduler (ref=false) or the single-heap reference core
// (ref=true) and captures all exports.
func runExports(t *testing.T, id string, ref bool) suiteExports {
	return runExportsOpts(t, id, func(o *Options) { o.ReferenceScheduler = ref })
}

// runExportsOpts is the generalized capture: tweak mutates the baseline
// options before the run, so any pair of configurations can be diffed.
func runExportsOpts(t *testing.T, id string, tweak func(*Options)) suiteExports {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver(obs.Config{SampleEvery: 1, Lineage: true, TimelineTick: 6 * 3600})
	opts := Options{
		Seed: 42, Quick: true, Parallel: 4,
		Stats: metrics.NewRunStats(), Obs: o,
	}
	tweak(&opts)
	tables, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var ex suiteExports
	for _, tb := range tables {
		ex.tables = append(ex.tables, tb.CSV())
	}
	var buf bytes.Buffer
	capture := func(name string, write func() error) []byte {
		buf.Reset()
		if err := write(); err != nil {
			t.Fatalf("%s export: %v", name, err)
		}
		return append([]byte(nil), buf.Bytes()...)
	}
	ex.events = capture("events", func() error { return o.WriteJSONL(&buf) })
	ex.lineage = capture("lineage", func() error { return o.WriteLineageJSONL(&buf) })
	ex.timeline = capture("timeline", func() error { return o.WriteTimelineCSV(&buf) })
	ex.om = capture("openmetrics", func() error { return obs.WriteOpenMetrics(&buf, o.Registry().Snapshot()) })
	return ex
}

// diffExports asserts two runs produced byte-identical exports and tables.
func diffExports(t *testing.T, id string, two, ref suiteExports) {
	t.Helper()
	if len(two.events) == 0 {
		t.Fatalf("%s: no trace events captured", id)
	}
	for _, cmp := range []struct {
		name     string
		got, ref []byte
	}{
		{"event trace", two.events, ref.events},
		{"lineage", two.lineage, ref.lineage},
		{"timeline", two.timeline, ref.timeline},
		{"openmetrics", two.om, ref.om},
	} {
		if !bytes.Equal(cmp.got, cmp.ref) {
			t.Errorf("%s: %s diverged from the reference scheduler (%d vs %d bytes)",
				id, cmp.name, len(cmp.got), len(cmp.ref))
		}
	}
	if len(two.tables) != len(ref.tables) {
		t.Fatalf("%s: %d tables vs %d from reference", id, len(two.tables), len(ref.tables))
	}
	for i := range two.tables {
		if two.tables[i] != ref.tables[i] {
			t.Errorf("%s: table %d diverged:\n%s\nvs reference:\n%s",
				id, i, two.tables[i], ref.tables[i])
		}
	}
}

// TestDifferentialE2AgainstReferenceScheduler is the end-to-end oracle for
// the two-stream scheduler rewrite: the full quick E2 sweep — event order
// (unsampled trace), metrics registry, lineage spans, telemetry timeline
// and result tables — must be byte-identical to the same sweep on the
// single-heap reference core.
func TestDifferentialE2AgainstReferenceScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick E2 sweep twice with unsampled tracing")
	}
	two := runExports(t, "E2", false)
	ref := runExports(t, "E2", true)
	diffExports(t, "E2", two, ref)
}

// TestDifferentialChurnAgainstReferenceScheduler repeats the oracle on the
// churn/loss experiment, where node up/down toggles and message drops put
// dynamic heap events in heavy equal-time contention with the static
// contact timeline.
func TestDifferentialChurnAgainstReferenceScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick E11 sweep twice with unsampled tracing")
	}
	two := runExports(t, "E11", false)
	ref := runExports(t, "E11", true)
	diffExports(t, "E11", two, ref)
}
