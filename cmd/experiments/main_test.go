package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"freshcache/internal/obs"
)

// captureStdout runs fn with os.Stdout redirected and returns its output
// with volatile footer lines (timings, memory) stripped — the byte-exact
// surface the resume tests compare.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "(") { // wall-clock and mem footers
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n"), runErr
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-run", "E1", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithCSVAndCharts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	if err := run([]string{"-run", "E1", "-quick", "-csv", dir, "-charts"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no CSV written")
	}
}

func TestRunMultipleIDs(t *testing.T) {
	if err := run([]string{"-run", "E1,E17", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-run", "E99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Two copies of one experiment would record their runs under the
	// same labels.
	if err := run([]string{"-run", "E1, E1", "-quick"}); err == nil {
		t.Fatal("repeated experiment ID accepted")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunParallel(t *testing.T) {
	if err := run([]string{"-run", "E1,E17", "-quick", "-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelValidation(t *testing.T) {
	if err := run([]string{"-run", "E1", "-parallel", "0"}); err == nil {
		t.Fatal("parallel=0 accepted")
	}
}

func TestRunReplicates(t *testing.T) {
	if err := run([]string{"-run", "E4", "-quick", "-replicates", "2", "-parallel", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunReplicatesValidation(t *testing.T) {
	if err := run([]string{"-run", "E1", "-replicates", "-1"}); err == nil {
		t.Fatal("replicates=-1 accepted")
	}
}

func TestRunWithObservability(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "obs")
	if err := run([]string{"-run", "E1", "-quick", "-obs", dir, "-obs-sample", "2"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"events.jsonl", "trace.json", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing obs output %s: %v", name, err)
		}
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace.json invalid: %v", err)
	}
	b, err = os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("manifest.json invalid: %v", err)
	}
	if m.Schema != obs.ManifestSchema || m.Tool != "experiments" || m.Metrics == nil || m.Events == nil {
		t.Fatalf("manifest incomplete: %+v", m)
	}
}

// TestRunTimelineTickForms: -timeline-tick takes a number of seconds or a
// duration, both spellings of one tick write the same timeline, and a
// non-finite tick is refused.
func TestRunTimelineTickForms(t *testing.T) {
	timeline := func(tick string) []byte {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "obs")
		if _, err := captureStdout(t, func() error {
			return run([]string{"-run", "E2", "-quick", "-obs", dir, "-timeline-tick", tick})
		}); err != nil {
			t.Fatalf("-timeline-tick %s: %v", tick, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "timeline.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	secs, dur := timeline("3600"), timeline("1h")
	if len(secs) == 0 || string(secs) != string(dur) {
		t.Fatalf("timeline.csv differs between -timeline-tick 3600 (%d bytes) and 1h (%d bytes)", len(secs), len(dur))
	}
	if err := run([]string{"-run", "E2", "-quick", "-obs", t.TempDir(), "-timeline-tick", "NaN"}); err == nil {
		t.Fatal("-timeline-tick NaN accepted")
	}
}

// TestRunCheckpointResume is the CLI acceptance test for the tentpole: an
// interrupted checkpointed run (simulated by truncating the journal to its
// first half) resumed with -resume prints tables byte-identical to an
// uninterrupted run.
func TestRunCheckpointResume(t *testing.T) {
	clean, err := captureStdout(t, func() error {
		return run([]string{"-run", "E2", "-quick"})
	})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	journaled, err := captureStdout(t, func() error {
		return run([]string{"-run", "E2", "-quick", "-checkpoint", ckpt})
	})
	if err != nil {
		t.Fatal(err)
	}
	if journaled != clean {
		t.Fatalf("checkpointed output differs from clean run:\n%s\nvs\n%s", journaled, clean)
	}
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("journal holds %d records, want several", len(lines))
	}
	// "Kill" the run halfway: keep only the first half of the journal.
	if err := os.WriteFile(ckpt, []byte(strings.Join(lines[:len(lines)/2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := captureStdout(t, func() error {
		return run([]string{"-run", "E2", "-quick", "-checkpoint", ckpt, "-resume"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != clean {
		t.Fatalf("resumed output differs from clean run:\n%s\nvs\n%s", resumed, clean)
	}
}

// TestRunResumeManifestProvenance: a resumed run's manifest records the
// journal path and the per-disposition cell counts.
func TestRunResumeManifestProvenance(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if err := run([]string{"-run", "E2", "-quick", "-checkpoint", ckpt}); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "obs")
	if err := run([]string{"-run", "E2", "-quick", "-checkpoint", ckpt, "-resume", "-obs", dir}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Resume == nil {
		t.Fatal("manifest missing resume summary")
	}
	if m.Resume.Journal != ckpt || !m.Resume.Resumed {
		t.Fatalf("resume provenance = %+v", m.Resume)
	}
	if m.Resume.CellsReplayed == 0 || m.Resume.CellsExecuted != 0 || m.Resume.CellsFailed != 0 {
		t.Fatalf("fully-journaled resume counts = %+v", m.Resume)
	}
	if len(m.Failures) != 0 {
		t.Fatalf("clean run reported failures: %+v", m.Failures)
	}
}

func TestRunCheckpointValidation(t *testing.T) {
	if err := run([]string{"-run", "E1", "-quick", "-resume"}); err == nil {
		t.Fatal("-resume without -checkpoint accepted")
	}
}

// TestRunRemovedFlags: -retries, -http and -v are gone. A cell is a pure
// function of its seeds, so a retry fails the same way; the manifest and
// metrics.om report what the live endpoint served; and the program logs
// nothing at debug level.
func TestRunRemovedFlags(t *testing.T) {
	for _, args := range [][]string{{"-retries", "1"}, {"-http", ":0"}, {"-v"}} {
		err := run(append([]string{"-run", "E1", "-quick"}, args...))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v, want an undefined-flag error", args, err)
		}
	}
}

// TestRunKeepGoingClean: -keep-going on a run with no failures behaves like
// a normal run and exits cleanly.
func TestRunKeepGoingClean(t *testing.T) {
	clean, err := captureStdout(t, func() error {
		return run([]string{"-run", "E1", "-quick"})
	})
	if err != nil {
		t.Fatal(err)
	}
	kg, err := captureStdout(t, func() error {
		return run([]string{"-run", "E1", "-quick", "-keep-going"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if kg != clean {
		t.Fatalf("keep-going output differs on a clean run:\n%s\nvs\n%s", kg, clean)
	}
}

func TestRunObsValidation(t *testing.T) {
	if err := run([]string{"-run", "E1", "-quick", "-obs", t.TempDir(), "-obs-sample", "0"}); err == nil {
		t.Fatal("obs-sample=0 accepted")
	}
	if err := run([]string{"-run", "E1", "-quick", "-obs", t.TempDir(), "-obs-buffer", "0"}); err == nil {
		t.Fatal("obs-buffer=0 accepted")
	}
}

func TestManifestDirs(t *testing.T) {
	got := manifestDirs("", "a", "a", "b", "")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("manifestDirs = %v", got)
	}
}
