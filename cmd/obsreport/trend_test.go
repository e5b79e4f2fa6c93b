package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"freshcache/internal/obs/store"
)

// writeStore appends records carrying one metric with the given values.
func writeStore(t *testing.T, metric string, vals ...float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.jsonl")
	for i, v := range vals {
		rec := &store.Record{
			Schema:    store.Schema,
			Tool:      "experiments",
			CreatedAt: fmt.Sprintf("2026-01-%02dT00:00:00Z", i+1),
			Seed:      42,
			Metrics:   map[string]float64{metric: v, "other": float64(i)},
		}
		if err := store.Append(path, rec); err != nil {
			t.Fatal(err)
		}
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

func TestGatePassesWithinTolerance(t *testing.T) {
	path := writeStore(t, "e2NsPerOp", 100, 103)
	var b strings.Builder
	if err := run([]string{"gate", "-metric", "e2NsPerOp", "-tolerance", "5", path}, &b); err != nil {
		t.Fatalf("gate failed within tolerance: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "ok: within tolerance") {
		t.Errorf("gate output: %s", b.String())
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	path := writeStore(t, "e2NsPerOp", 100, 120)
	var b strings.Builder
	err := run([]string{"gate", "-metric", "e2NsPerOp", "-tolerance", "5", path}, &b)
	if !errors.Is(err, errRegression) {
		t.Fatalf("gate err = %v, want errRegression", err)
	}
	if !strings.Contains(b.String(), "REGRESSION") {
		t.Errorf("gate output: %s", b.String())
	}
}

func TestGateLowerBad(t *testing.T) {
	// Throughput-style metric: dropping from 100 to 80 is the regression.
	path := writeStore(t, "cellsPerSec", 100, 80)
	err := run([]string{"gate", "-metric", "cellsPerSec", "-tolerance", "5", "-lower-bad", path}, &strings.Builder{})
	if !errors.Is(err, errRegression) {
		t.Fatalf("gate -lower-bad err = %v, want errRegression", err)
	}
	// And rising is an improvement, not a regression.
	path = writeStore(t, "cellsPerSec", 80, 100)
	if err := run([]string{"gate", "-metric", "cellsPerSec", "-tolerance", "5", "-lower-bad", path}, &strings.Builder{}); err != nil {
		t.Fatalf("gate flagged an improvement: %v", err)
	}
}

func TestGatePerMetricTolerance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	for _, m := range []map[string]float64{
		{"a": 100, "b": 100},
		{"a": 108, "b": 108}, // +8% on both
	} {
		if err := store.Append(path, &store.Record{Schema: store.Schema, Tool: "experiments", CreatedAt: "t", Metrics: m}); err != nil {
			t.Fatal(err)
		}
	}
	// a tolerates 10% (passes), b tolerates 5% (fails).
	err := run([]string{"gate", "-metric", "a:10,b:5", path}, &strings.Builder{})
	if !errors.Is(err, errRegression) {
		t.Fatalf("per-metric tolerance err = %v, want errRegression", err)
	}
	if err := run([]string{"gate", "-metric", "a:10,b:10", path}, &strings.Builder{}); err != nil {
		t.Fatalf("both within per-metric tolerance: %v", err)
	}
}

func TestGateBaselines(t *testing.T) {
	// History 100, 90, 95; newest 96. prev=95 (+1.05% ok at 5%),
	// best=90 (+6.7% regression at 5%), median=95 (ok).
	path := writeStore(t, "m", 100, 90, 95, 96)
	if err := run([]string{"gate", "-metric", "m", "-baseline", "prev", path}, &strings.Builder{}); err != nil {
		t.Fatalf("prev baseline: %v", err)
	}
	if err := run([]string{"gate", "-metric", "m", "-baseline", "best", path}, &strings.Builder{}); !errors.Is(err, errRegression) {
		t.Fatalf("best baseline err = %v, want errRegression", err)
	}
	if err := run([]string{"gate", "-metric", "m", "-baseline", "median", path}, &strings.Builder{}); err != nil {
		t.Fatalf("median baseline: %v", err)
	}
	if err := run([]string{"gate", "-metric", "m", "-baseline", "nope", path}, &strings.Builder{}); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}

func TestGateNeedsHistory(t *testing.T) {
	path := writeStore(t, "m", 100)
	if err := run([]string{"gate", "-metric", "m", path}, &strings.Builder{}); err == nil {
		t.Fatal("gate ran with a single record")
	}
}

// TestUnboundedToleranceRejected: a NaN, infinite or negative tolerance
// would let gate and diff pass a 3× regression, so both refuse it as a
// usage error (exit 1), not as a verdict.
func TestUnboundedToleranceRejected(t *testing.T) {
	path := writeStore(t, "engine/contacts", 100, 300)
	base, cand := t.TempDir(), t.TempDir()
	writeFixture(t, base, 100, 50, 120)
	writeFixture(t, cand, 300, 50, 120)
	for _, tol := range []string{"NaN", "Inf", "+Inf", "-Inf", "-1"} {
		for _, args := range [][]string{
			{"gate", "-metric", "engine/contacts:" + tol, path},
			{"gate", "-metric", "engine/contacts", "-tolerance", tol, path},
			{"diff", "-tolerance", tol, base, cand},
		} {
			err := run(args, &strings.Builder{})
			if err == nil || errors.Is(err, errRegression) {
				t.Errorf("%q: err = %v, want a usage error", args, err)
			}
		}
	}
}
