package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"freshcache/internal/metrics"
	"freshcache/internal/obs"
)

// appendRecord appends one manifest carrying the given gauges to the store
// at path.
func appendRecord(t *testing.T, path, tool string, day int, gauges map[string]float64) {
	t.Helper()
	m := &obs.Manifest{
		Schema:    obs.ManifestSchema,
		Tool:      tool,
		CreatedAt: fmt.Sprintf("2026-01-%02dT00:00:00Z", day),
		Seed:      42,
		Metrics:   &obs.RegistrySnapshot{Gauges: gauges},
	}
	if err := m.Append(path); err != nil {
		t.Fatal(err)
	}
}

// writeStore appends records carrying one metric with the given values.
func writeStore(t *testing.T, metric string, vals ...float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.jsonl")
	for i, v := range vals {
		appendRecord(t, path, "experiments", i+1, map[string]float64{metric: v, "other": float64(i)})
	}
	return path
}

func TestTrendRendersSeries(t *testing.T) {
	path := writeStore(t, "e2NsPerOp", 100, 110, 90)
	var b strings.Builder
	if err := run([]string{"trend", "-metric", "e2NsPerOp", path}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"trend e2NsPerOp (3 point(s))", "2026-01-03", "net change: -10.00%"} {
		if !strings.Contains(out, want) {
			t.Errorf("trend output missing %q:\n%s", want, out)
		}
	}
}

func TestTrendUnknownMetric(t *testing.T) {
	path := writeStore(t, "x", 1)
	if err := run([]string{"trend", "-metric", "nope", path}, &strings.Builder{}); err == nil {
		t.Fatal("trend accepted an unknown metric")
	}
}

func TestQueryListsRecordsAndMetrics(t *testing.T) {
	path := writeStore(t, "e2NsPerOp", 100, 110)
	var b strings.Builder
	if err := run([]string{"query", path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "2 record(s)") {
		t.Errorf("query output: %s", b.String())
	}
	b.Reset()
	if err := run([]string{"query", "-metrics", path}, &b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Fields(b.String()); len(got) != 2 || got[0] != "e2NsPerOp" || got[1] != "other" {
		t.Errorf("query -metrics = %q", b.String())
	}
}

// TestReadStoreFiltersByTool: -tool keeps the records one tool appended,
// and an empty tool keeps them all.
func TestReadStoreFiltersByTool(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	for i, tool := range []string{"a", "b", "a"} {
		appendRecord(t, path, tool, i+1, map[string]float64{"m": float64(i)})
	}
	for tool, want := range map[string]int{"a": 2, "b": 1, "": 3} {
		ms, err := readStore(path, tool)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != want {
			t.Errorf("readStore(%q) = %d records, want %d", tool, len(ms), want)
		}
		// Indices count within the filtered records.
		if pts := series(ms, "m"); tool == "a" && (len(pts) != 2 || pts[1].Index != 1 || pts[1].Value != 2) {
			t.Errorf("series over tool a = %+v", pts)
		}
	}
}

// TestFlattenNames: counters and gauges keep their registry names, and
// each scheme roll-up adds its figures under "scheme/<name>/".
func TestFlattenNames(t *testing.T) {
	delay := metrics.NewHist(metrics.DelayBuckets())
	delay.Observe(30)
	delay.Observe(90)
	m := obs.Manifest{
		Metrics: &obs.RegistrySnapshot{
			Counters: map[string]int64{"engine/contacts": 12},
			Gauges:   map[string]float64{"sweep/queue_depth": 0},
		},
		SchemeStats: []metrics.SchemeRollup{
			{Scheme: "hierarchical", Transmissions: 9, Deliveries: 4, VersionsGenerated: 2,
				DeliveryDelayHist: delay, RefreshAgeHist: delay},
			{Scheme: "direct", Transmissions: 3},
		},
	}
	want := map[string]float64{
		"engine/contacts":                        12,
		"sweep/queue_depth":                      0,
		"scheme/hierarchical/transmissions":      9,
		"scheme/hierarchical/deliveries":         4,
		"scheme/hierarchical/versions_generated": 2,
		"scheme/hierarchical/tx_per_delivery":    2.25,
		"scheme/hierarchical/mean_delay_s":       60,
		"scheme/hierarchical/mean_age_s":         60,
		"scheme/direct/transmissions":            3,
		"scheme/direct/deliveries":               0,
		"scheme/direct/versions_generated":       0,
	}
	if got := flatten(m); !reflect.DeepEqual(got, want) {
		t.Errorf("flatten =\n%v\nwant\n%v", got, want)
	}
}

// TestUnboundedToleranceRejected: a NaN, infinite or negative tolerance
// would let diff pass a 3× regression, so it refuses one as a usage error
// (exit 1), not as a verdict.
func TestUnboundedToleranceRejected(t *testing.T) {
	base, cand := t.TempDir(), t.TempDir()
	writeFixture(t, base, 100, 50, 120)
	writeFixture(t, cand, 300, 50, 120)
	for _, tol := range []string{"NaN", "Inf", "+Inf", "-Inf", "-1"} {
		args := []string{"diff", "-tolerance", tol, base, cand}
		err := run(args, &strings.Builder{})
		if err == nil || errors.Is(err, errRegression) {
			t.Errorf("%q: err = %v, want a usage error", args, err)
		}
	}
}
