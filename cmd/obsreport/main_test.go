package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"freshcache/internal/metrics"
	"freshcache/internal/obs"
)

// writeFixture materializes one synthetic obs directory: a two-hop lineage
// (generate → duty → handoff → delivery), a three-tick timeline and a
// manifest with one scheme roll-up.
func writeFixture(t *testing.T, dir string, tx, deliveries int, delay float64) {
	t.Helper()
	rec := obs.Recording{Lineage: obs.NewLineage("run-a", "hierarchical", 0)}
	root := rec.Generate(0, 0, 1, 3)
	duty := rec.Duty(10, root, 0, 1, 3, 1)
	hop := rec.Handoff(20, duty, 0, 5, 1, 3)
	rec.Delivered(30, hop, 5, 9, 1, 3, 30)
	f, err := os.Create(filepath.Join(dir, "lineage.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Lineage.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tl := obs.NewTimeline("run-a", 0)
	for i, tick := range []float64{100, 200, 300} {
		tl.Sample(tick, "freshness_ratio", -1, -1, float64(i)*0.25)
		tl.Sample(tick, "copy_age", 9, 1, float64(i)*60)
	}
	f, err = os.Create(filepath.Join(dir, "timeline.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(obs.TimelineCSVHeader + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := tl.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	delayHist := metrics.NewHist(metrics.DelayBuckets())
	delayHist.Observe(delay)
	m := obs.NewManifest("test")
	m.Seed = 42
	m.SchemeStats = []metrics.SchemeRollup{{
		Scheme:            "hierarchical",
		Runs:              1,
		Transmissions:     tx,
		Deliveries:        deliveries,
		VersionsGenerated: 10,
		DeliveryDelayHist: delayHist,
	}}
	m.FinishResources(time.Now())
	if err := m.Write(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
}

func TestReportJoinsArtifacts(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, 100, 50, 120)

	var buf strings.Builder
	if err := run([]string{"report", "-json", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(buf.String()), &rep); err != nil {
		t.Fatalf("report -json output not JSON: %v", err)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].Run != "run-a" {
		t.Fatalf("runs = %+v, want one run-a", rep.Runs)
	}
	r := rep.Runs[0]
	if r.Spans != 4 || r.SpanKinds["delivery"] != 1 {
		t.Errorf("spans = %d kinds = %v, want 4 with one delivery", r.Spans, r.SpanKinds)
	}
	// The delivery sits three edges below the generation root.
	if r.HopCount == nil || r.HopCount.Mean != 3 {
		t.Errorf("hop count = %+v, want mean 3", r.HopCount)
	}
	// Stall = delivery.t − handoff.t = 30 − 20.
	if r.StallTime == nil || r.StallTime.Mean != 10 {
		t.Errorf("stall = %+v, want mean 10", r.StallTime)
	}
	if r.Timeline == nil || r.Timeline.Ticks != 3 || r.Timeline.FinalFreshness != 0.5 {
		t.Errorf("timeline = %+v, want 3 ticks final 0.5", r.Timeline)
	}
	if len(rep.Schemes) != 1 || rep.Schemes[0].TxPerDelivery != 2 {
		t.Errorf("schemes = %+v, want tx/delivery 2", rep.Schemes)
	}

	// Text mode renders the same joined report.
	buf.Reset()
	if err := run([]string{"report", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run run-a", "hops to delivery:", "timeline: 6 points over 3 ticks", "scheme cost"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text report missing %q in:\n%s", want, buf.String())
		}
	}
}

func TestDiffVerdictsAndExit(t *testing.T) {
	base, cand := t.TempDir(), t.TempDir()
	writeFixture(t, base, 100, 50, 120)

	// Identical runs diff clean.
	var buf strings.Builder
	writeFixture(t, cand, 100, 50, 120)
	if err := run([]string{"diff", base, cand}, &buf); err != nil {
		t.Fatalf("identical diff: %v", err)
	}

	// 50% more transmissions per delivery: past the default 5% tolerance.
	writeFixture(t, cand, 150, 50, 120)
	buf.Reset()
	err := run([]string{"diff", base, cand}, &buf)
	if !errors.Is(err, errRegression) {
		t.Fatalf("worsened diff err = %v, want errRegression", err)
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("diff output missing REGRESSION verdict:\n%s", buf.String())
	}

	// The same delta passes under a wide-open tolerance.
	buf.Reset()
	if err := run([]string{"diff", "-tolerance", "100", base, cand}, &buf); err != nil {
		t.Fatalf("tolerant diff: %v", err)
	}

	// Improvements never fail, whatever the tolerance.
	writeFixture(t, cand, 10, 80, 60)
	buf.Reset()
	if err := run([]string{"diff", "-tolerance", "0", base, cand}, &buf); err != nil {
		t.Fatalf("improved diff: %v", err)
	}
	if !strings.Contains(buf.String(), "improved") {
		t.Errorf("diff output missing improved verdict:\n%s", buf.String())
	}
}

func TestDiffErrors(t *testing.T) {
	if err := run([]string{"diff", t.TempDir(), t.TempDir()}, &strings.Builder{}); err == nil {
		t.Error("diff of empty dirs should fail")
	}
	if err := run([]string{"bogus"}, &strings.Builder{}); err == nil {
		t.Error("unknown subcommand should fail")
	}
	if err := run(nil, &strings.Builder{}); err == nil {
		t.Error("missing subcommand should fail")
	}
}

// TestDistPercentilesInterpolate: report percentiles interpolate linearly
// between order statistics, so 1…7 has p90 6.4 and p99 6.94 (rounding to
// a rank would give 6 and 7).
func TestDistPercentilesInterpolate(t *testing.T) {
	d := newDist([]float64{7, 3, 1, 5, 2, 6, 4})
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mean", d.Mean, 4}, {"min", d.Min, 1}, {"max", d.Max, 7},
		{"p50", d.P50, 4}, {"p90", d.P90, 6.4}, {"p99", d.P99, 6.94},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if d.Count != 7 {
		t.Errorf("count = %d, want 7", d.Count)
	}
	if newDist(nil) != nil {
		t.Error("empty sample gave a distribution")
	}
}
