package expt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"freshcache/internal/metrics"
	"freshcache/internal/obs"
)

// runQuickE2Obs runs the quick E2 sweep with the given worker bound and
// returns the observer's flushed JSONL and Chrome trace bytes plus the
// rendered tables.
func runQuickE2Obs(t *testing.T, parallel int) (jsonl, chrome []byte, tables []*Table) {
	t.Helper()
	e, err := ByID("E2")
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver(obs.Config{SampleEvery: 4})
	tables, err = e.Run(Options{
		Seed: 42, Quick: true, Parallel: parallel,
		Stats: metrics.NewRunStats(), Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	var jl, ct bytes.Buffer
	if err := o.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteChromeTrace(&ct); err != nil {
		t.Fatal(err)
	}
	return jl.Bytes(), ct.Bytes(), tables
}

// TestObsTraceDeterministicAcrossParallel is the golden determinism check:
// with observability on, the flushed event trace and Chrome trace must be
// byte-identical whether the sweep ran on one worker or eight.
func TestObsTraceDeterministicAcrossParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick E2 sweep twice")
	}
	jl1, ct1, tb1 := runQuickE2Obs(t, 1)
	jl8, ct8, tb8 := runQuickE2Obs(t, 8)
	if len(jl1) == 0 {
		t.Fatal("no trace events emitted")
	}
	if !bytes.Equal(jl1, jl8) {
		t.Fatalf("JSONL trace diverged across -parallel (1: %d bytes, 8: %d bytes)", len(jl1), len(jl8))
	}
	if !bytes.Equal(ct1, ct8) {
		t.Fatalf("Chrome trace diverged across -parallel (1: %d bytes, 8: %d bytes)", len(ct1), len(ct8))
	}
	if len(tb1) != len(tb8) || tb1[0].CSV() != tb8[0].CSV() {
		t.Fatal("tables diverged across -parallel")
	}

	// Every JSONL line is valid standalone JSON with a run label matching
	// the cell-label scheme.
	lines := strings.Split(strings.TrimSpace(string(jl1)), "\n")
	for _, line := range lines[:min(len(lines), 50)] {
		var m struct {
			Run  string  `json:"run"`
			T    float64 `json:"t"`
			Kind string  `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if !strings.HasPrefix(m.Run, "E2/") || m.Kind == "" {
			t.Fatalf("unexpected trace record: %q", line)
		}
	}

	// The Chrome export must be one valid JSON document.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(ct1, &doc); err != nil {
		t.Fatalf("Chrome trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("Chrome trace empty")
	}
}

// runQuickE2Lineage runs the quick E2 sweep with lineage and timeline
// collection on and returns the flushed lineage JSONL and timeline CSV.
func runQuickE2Lineage(t *testing.T, parallel int) (lineage, timeline []byte) {
	t.Helper()
	e, err := ByID("E2")
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver(obs.Config{SampleEvery: 64, Lineage: true, TimelineTick: 6 * 3600})
	if _, err := e.Run(Options{Seed: 42, Quick: true, Parallel: parallel,
		Stats: metrics.NewRunStats(), Obs: o}); err != nil {
		t.Fatal(err)
	}
	var lj, tc bytes.Buffer
	if err := o.WriteLineageJSONL(&lj); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteTimelineCSV(&tc); err != nil {
		t.Fatal(err)
	}
	return lj.Bytes(), tc.Bytes()
}

// TestLineageTimelineDeterministicAcrossParallel extends the golden
// determinism check to the new exports: lineage spans and timeline samples
// must be byte-identical across worker counts.
func TestLineageTimelineDeterministicAcrossParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick E2 sweep twice")
	}
	lj1, tc1 := runQuickE2Lineage(t, 1)
	lj8, tc8 := runQuickE2Lineage(t, 8)
	if len(lj1) == 0 || len(tc1) == 0 {
		t.Fatalf("no lineage (%d bytes) or timeline (%d bytes) emitted", len(lj1), len(tc1))
	}
	if !bytes.Equal(lj1, lj8) {
		t.Fatalf("lineage diverged across -parallel (1: %d bytes, 8: %d bytes)", len(lj1), len(lj8))
	}
	if !bytes.Equal(tc1, tc8) {
		t.Fatalf("timeline diverged across -parallel (1: %d bytes, 8: %d bytes)", len(tc1), len(tc8))
	}

	// The export must parse back, carry sweep cell labels, and every run's
	// span set must form well-parented trees: a delivery hangs off a
	// generation through at least one edge.
	records, err := obs.ReadSpansJSONL(bytes.NewReader(lj1))
	if err != nil {
		t.Fatalf("lineage round-trip: %v", err)
	}
	perRun := map[string][]obs.SpanRecord{}
	for _, rec := range records {
		if !strings.HasPrefix(rec.Run, "E2/") {
			t.Fatalf("unexpected run label %q", rec.Run)
		}
		perRun[rec.Run] = append(perRun[rec.Run], rec)
	}
	deliveries := 0
	for run, recs := range perRun {
		tree := obs.BuildSpanTree(recs)
		if len(tree.Roots) == 0 {
			t.Fatalf("%s: no generation roots", run)
		}
		for _, rec := range recs {
			if rec.Kind == obs.SpanDelivery {
				deliveries++
				if d := tree.Depth(rec.ID); d < 1 {
					t.Fatalf("%s: delivery span %d has depth %d", run, rec.ID, d)
				}
			}
		}
	}
	if deliveries == 0 {
		t.Fatal("no delivery spans in the whole sweep")
	}

	tls, err := obs.ReadTimelineCSV(bytes.NewReader(tc1))
	if err != nil {
		t.Fatalf("timeline round-trip: %v", err)
	}
	series := map[string]bool{}
	for _, rec := range tls {
		series[rec.Series] = true
	}
	for _, want := range []string{"freshness_ratio", "contacts", "copy_age"} {
		if !series[want] {
			t.Fatalf("timeline missing series %q (have %v)", want, series)
		}
	}
}

// TestObsRollupsPopulated checks that the registry's run and sweep totals
// and the per-scheme roll-ups fill in during a real run, and that the
// totals agree with the roll-ups.
func TestObsRollupsPopulated(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick E2 sweep")
	}
	e, err := ByID("E2")
	if err != nil {
		t.Fatal(err)
	}
	o, stats, ledger := obs.NewObserver(obs.Config{SampleEvery: 16}), metrics.NewRunStats(), &Ledger{}
	if _, err := e.Run(Options{Seed: 42, Quick: true, Parallel: 4, Stats: stats, Obs: o, Ledger: ledger}); err != nil {
		t.Fatal(err)
	}
	ledger.AddTo(o.Metrics)
	c := o.Metrics.Snapshot().Counters
	queued, done := c["sweep/cells_queued"], c["sweep/cells_done"]
	if queued == 0 || queued != done {
		t.Fatalf("cells queued=%d done=%d", queued, done)
	}
	if c["engine/contacts"] == 0 {
		t.Fatal("engine/contacts counter never added")
	}
	rollups := stats.SchemeRollups()
	if len(rollups) == 0 {
		t.Fatal("no scheme rollups")
	}
	var runs, deliveries int64
	for _, ru := range rollups {
		if ru.Runs == 0 || ru.DeliveryDelayHist == nil {
			t.Fatalf("rollup incomplete: %+v", ru)
		}
		runs += int64(ru.Runs)
		deliveries += int64(ru.Deliveries)
	}
	if done != runs || c["engine/deliveries"] != deliveries || deliveries == 0 {
		t.Fatalf("registry reads %d cells done and %d deliveries, the roll-ups %d runs and %d deliveries",
			done, c["engine/deliveries"], runs, deliveries)
	}
	st := o.Stats()
	if st.Runs == 0 || st.Seen == 0 || int64(st.Runs) != done {
		t.Fatalf("event stats %+v, %d cells done", st, done)
	}
}

// TestE10TimingsOptIn: the wall-clock column appears only with
// Options.Timings, keeping default output machine-independent.
func TestE10TimingsOptIn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E10 twice")
	}
	e, err := ByID("E10")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.Run(Options{Seed: 42, Quick: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	timed, err := e.Run(Options{Seed: 42, Quick: true, Parallel: 4, Timings: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain[0].CSV(), "wallClock") {
		t.Fatalf("default E10 has wall-clock column:\n%s", plain[0].CSV())
	}
	if !strings.Contains(timed[0].CSV(), "wallClock(s)") {
		t.Fatalf("-timings E10 missing wall-clock column:\n%s", timed[0].CSV())
	}
}
