package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"freshcache/internal/obs"
)

// TestRunStoreAppendsRecord: every -store invocation appends its manifest,
// with the metric snapshot, per-cell costs and ledger dispositions, as one
// line, equal to the manifest.json it writes; repeated same-seed runs
// append records whose result-carrying fields are identical.
func TestRunStoreAppendsRecord(t *testing.T) {
	dir := t.TempDir()
	path, obsDir := filepath.Join(dir, "store.jsonl"), filepath.Join(dir, "obs")
	if err := run([]string{"-run", "E2", "-quick", "-store", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", "E2", "-quick", "-obs", obsDir, "-store", path}); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("store holds %d records, want 2", len(recs))
	}
	written, err := obs.ReadManifest(filepath.Join(obsDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs[1], *written) {
		t.Errorf("store record differs from manifest.json:\n%+v\n%+v", recs[1], *written)
	}
	r := recs[0]
	if r.Tool != "experiments" || r.Seed != 42 || r.ConfigDigest == "" {
		t.Fatalf("record provenance: %+v", r)
	}
	if r.Metrics == nil || r.Metrics.Counters["engine/contacts"] <= 0 {
		t.Errorf("record metrics missing engine/contacts: %v", r.Metrics)
	}
	if len(r.Cells) == 0 {
		t.Error("record has no per-cell costs")
	}
	for _, c := range r.Cells {
		if c.Experiment != "E2" || c.WallSeconds < 0 {
			t.Errorf("cell cost: %+v", c)
		}
		if c.Mallocs == 0 {
			t.Errorf("cell %v: no alloc delta at -parallel 1", c)
		}
	}
	if r.Resume == nil || r.Resume.CellsExecuted == 0 {
		t.Errorf("record resume summary: %+v", r.Resume)
	}

	// Determinism modulo provenance/timing: metrics, roll-ups,
	// dispositions and digest match across same-seed runs.
	a, b := recs[0], recs[1]
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Errorf("metrics differ across same-seed runs:\n%v\n%v", a.Metrics, b.Metrics)
	}
	if !reflect.DeepEqual(a.SchemeStats, b.SchemeStats) {
		t.Error("scheme roll-ups differ across same-seed runs")
	}
	if a.ConfigDigest != b.ConfigDigest || *a.Resume != *b.Resume || len(a.Cells) != len(b.Cells) {
		t.Errorf("records not comparable: %+v vs %+v", a, b)
	}
}

// TestRunStoreDeterministicAcrossParallel: tables and the record's
// result-carrying fields are identical at -parallel 1 and 8; only cell
// wall/alloc numbers (timing) may differ. Three experiments run at once
// at -parallel 8, so their runs finish interleaved, and the per-scheme
// roll-ups' float sums must not depend on that order.
func TestRunStoreDeterministicAcrossParallel(t *testing.T) {
	dir := t.TempDir()
	p1, p8 := filepath.Join(dir, "p1.jsonl"), filepath.Join(dir, "p8.jsonl")
	out1, err := captureStdout(t, func() error {
		return run([]string{"-run", "E2,E11,E18", "-quick", "-parallel", "1", "-store", p1})
	})
	if err != nil {
		t.Fatal(err)
	}
	out8, err := captureStdout(t, func() error {
		return run([]string{"-run", "E2,E11,E18", "-quick", "-parallel", "8", "-store", p8})
	})
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out8 {
		t.Errorf("tables differ between -parallel 1 and 8 with -store:\n%s\n---\n%s", out1, out8)
	}
	r1, err := obs.ReadStore(p1)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := obs.ReadStore(p8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1[0].Metrics, r8[0].Metrics) {
		t.Error("store metrics differ between -parallel 1 and 8")
	}
	if !reflect.DeepEqual(r1[0].SchemeStats, r8[0].SchemeStats) {
		t.Error("store scheme roll-ups differ between -parallel 1 and 8")
	}
	if r1[0].ConfigDigest != r8[0].ConfigDigest {
		t.Error("-parallel moved the config digest")
	}
	// Cell identity (grid order) is deterministic either way.
	if len(r1[0].Cells) != len(r8[0].Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(r1[0].Cells), len(r8[0].Cells))
	}
	for i := range r1[0].Cells {
		a, b := r1[0].Cells[i], r8[0].Cells[i]
		if a.Experiment != b.Experiment || a.Preset != b.Preset || a.Point != b.Point ||
			a.Scheme != b.Scheme || a.Replicate != b.Replicate {
			t.Fatalf("cell %d identity differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestRunProfileSlowest: the N most expensive cells' CPU profiles land in
// <obs>/profiles/ and are listed in the manifest outputs.
func TestRunProfileSlowest(t *testing.T) {
	dir := t.TempDir()
	obsDir := filepath.Join(dir, "obs")
	if err := run([]string{"-run", "E2", "-quick", "-parallel", "1",
		"-obs", obsDir, "-store", filepath.Join(dir, "s.jsonl"), "-profile-slowest", "2"}); err != nil {
		t.Fatal(err)
	}
	profs, err := filepath.Glob(filepath.Join(obsDir, "profiles", "*.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) == 0 || len(profs) > 2 {
		t.Fatalf("profiles written: %v, want 1-2", profs)
	}
	for _, p := range profs {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Errorf("profile %s: %v (size %d)", p, err, st.Size())
		}
	}
}

func TestRunProfileSlowestValidation(t *testing.T) {
	if err := run([]string{"-run", "E1", "-quick", "-profile-slowest", "2"}); err == nil {
		t.Error("-profile-slowest accepted without -obs")
	}
	if err := run([]string{"-run", "E1", "-quick", "-obs", t.TempDir(),
		"-parallel", "2", "-profile-slowest", "2"}); err == nil {
		t.Error("-profile-slowest accepted at -parallel 2")
	}
	if err := run([]string{"-run", "E1", "-quick", "-profile-slowest", "-1"}); err == nil {
		t.Error("negative -profile-slowest accepted")
	}
}
