package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"freshcache/internal/mobility"
	"freshcache/internal/obs"
	"freshcache/internal/trace"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed — the surface the resume tests compare byte for byte.
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
	return <-done, runErr
}

func smallTraceFile(t *testing.T) string {
	t.Helper()
	g := &mobility.Community{
		TraceName: "cli", N: 25, Duration: 4 * mobility.Day, Communities: 3,
		IntraRate: 8.0 / mobility.Day, InterRate: 1.0 / mobility.Day, RateShape: 0.8,
		InterPairFraction: 0.6, HubFraction: 0.1, HubBoost: 3, MeanContactDur: 120,
	}
	tr, err := g.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cli.contacts")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunOnTraceFile(t *testing.T) {
	path := smallTraceFile(t)
	if err := run([]string{"-trace", path, "-items", "2", "-caching", "4", "-refresh", "4h"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSON(t *testing.T) {
	path := smallTraceFile(t)
	if err := run([]string{"-trace", path, "-items", "2", "-caching", "4", "-refresh", "4h", "-json"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFailureKnobs(t *testing.T) {
	path := smallTraceFile(t)
	args := []string{
		"-trace", path, "-items", "2", "-caching", "4", "-refresh", "4h",
		"-scheme", "hierarchical", "-loss", "0.2", "-churn-up", "12h", "-churn-down", "2h",
		"-distributed", "-rebuild", "24h",
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunCompare(t *testing.T) {
	path := smallTraceFile(t)
	if err := run([]string{"-trace", path, "-items", "2", "-caching", "4", "-refresh", "4h",
		"-compare", "direct,hierarchical"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	path := smallTraceFile(t)
	cases := [][]string{
		{"-scheme", "bogus", "-trace", path},
		{"-trace", filepath.Join(t.TempDir(), "missing")},
		{"-trace", path, "-items", "0"},
		{"-trace", path, "-compare", "direct,bogus"},
		{"-badflag"},
		// Non-finite numbers pass every range test written as x <= 0,
		// so each must be rejected on its own: NaN leaves no plan
		// satisfiable, and infinitely many queries never finish issuing.
		{"-trace", path, "-preq", "NaN"},
		{"-trace", path, "-queries", "Inf"},
		{"-trace", path, "-loss", "NaN"},
		// Values that crashed or silently meant "off" or "once"; 0 keeps
		// its meaning where it has one.
		{"-trace", path, "-items", "-1"},
		{"-trace", path, "-obs-buffer", "0"},
		{"-trace", path, "-obs-buffer", "-1"},
		{"-trace", path, "-runs", "0"},
		{"-trace", path, "-runs", "-2"},
		{"-trace", path, "-rebuild", "-1h"},
		{"-trace", path, "-churn-up", "-1h"},
		{"-trace", path, "-churn-down", "-1h"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunReplicated(t *testing.T) {
	path := smallTraceFile(t)
	if err := run([]string{"-trace", path, "-items", "2", "-caching", "4", "-refresh", "4h", "-runs", "3"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunReplicatedCheckpointResume: a replicated run interrupted after
// some replicates (simulated by truncating the checkpoint journal) and
// resumed must print a report byte-identical to an uninterrupted run.
func TestRunReplicatedCheckpointResume(t *testing.T) {
	path := smallTraceFile(t)
	base := []string{"-trace", path, "-items", "2", "-caching", "4", "-refresh", "4h", "-runs", "3"}
	clean, err := captureStdout(t, func() error { return run(base) })
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	withCkpt := append(append([]string{}, base...), "-checkpoint", ckpt)
	journaled, err := captureStdout(t, func() error { return run(withCkpt) })
	if err != nil {
		t.Fatal(err)
	}
	if journaled != clean {
		t.Fatalf("checkpointed output differs from clean run:\n%q\nvs\n%q", journaled, clean)
	}
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("journal holds %d records, want 3", len(lines))
	}
	// "Kill" the run after the first replicate.
	if err := os.WriteFile(ckpt, []byte(lines[0]), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := captureStdout(t, func() error {
		return run(append(append([]string{}, withCkpt...), "-resume"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != clean {
		t.Fatalf("resumed output differs from clean run:\n%q\nvs\n%q", resumed, clean)
	}
}

// TestRunCheckpointConfigChangeReExecutes: resuming with changed
// simulation flags must not splice the stale journal in.
func TestRunCheckpointConfigChangeReExecutes(t *testing.T) {
	path := smallTraceFile(t)
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	base := []string{"-trace", path, "-items", "2", "-caching", "4", "-refresh", "4h", "-runs", "2", "-checkpoint", ckpt}
	if err := run(base); err != nil {
		t.Fatal(err)
	}
	// Same journal, different -zipf: a changed experiment ID keeps the old
	// records from replaying, and the run must still succeed.
	changed := []string{"-trace", path, "-items", "2", "-caching", "4", "-refresh", "4h", "-runs", "2",
		"-zipf", "0.5", "-checkpoint", ckpt, "-resume"}
	clean, err := captureStdout(t, func() error {
		return run([]string{"-trace", path, "-items", "2", "-caching", "4", "-refresh", "4h", "-runs", "2", "-zipf", "0.5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := captureStdout(t, func() error { return run(changed) })
	if err != nil {
		t.Fatal(err)
	}
	if got != clean {
		t.Fatalf("changed-config resume output differs:\n%q\nvs\n%q", got, clean)
	}
}

func TestRunCheckpointValidation(t *testing.T) {
	path := smallTraceFile(t)
	cases := [][]string{
		{"-trace", path, "-runs", "3", "-resume"},                                                    // -resume without -checkpoint
		{"-trace", path, "-checkpoint", filepath.Join(t.TempDir(), "c.jsonl")},                       // single run
		{"-trace", path, "-compare", "direct", "-checkpoint", filepath.Join(t.TempDir(), "c.jsonl")}, // compare mode
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunWithObservability(t *testing.T) {
	path := smallTraceFile(t)
	dir := filepath.Join(t.TempDir(), "obs")
	if err := run([]string{"-trace", path, "-items", "2", "-caching", "4", "-refresh", "4h", "-obs", dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"events.jsonl", "trace.json", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing obs output %s: %v", name, err)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("manifest.json invalid: %v", err)
	}
	if m.Tool != "freshsim" || m.Events == nil || m.Events.Runs != 1 {
		t.Fatalf("manifest incomplete: %+v", m)
	}
}

// TestRunTimelineTickForms: -timeline-tick takes a number of seconds or a
// duration, and both spellings of one tick write the same timeline.
func TestRunTimelineTickForms(t *testing.T) {
	path := smallTraceFile(t)
	timeline := func(tick string) []byte {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "obs")
		if _, err := captureStdout(t, func() error {
			return run([]string{"-trace", path, "-items", "2", "-caching", "4", "-refresh", "4h", "-obs", dir, "-timeline-tick", tick})
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
}

// TestRunStore: -store appends the run's manifest, metrics included, equal
// to the manifest.json -obs writes, and leaves the report byte-identical.
func TestRunStore(t *testing.T) {
	path := smallTraceFile(t)
	base := []string{"-trace", path, "-items", "2", "-caching", "4", "-refresh", "4h"}
	clean, err := captureStdout(t, func() error { return run(base) })
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sp, od := filepath.Join(dir, "store.jsonl"), filepath.Join(dir, "obs")
	stored, err := captureStdout(t, func() error {
		return run(append(append([]string{}, base...), "-store", sp, "-obs", od))
	})
	if err != nil {
		t.Fatal(err)
	}
	if stored != clean {
		t.Fatalf("-store changed the report:\n%q\nvs\n%q", stored, clean)
	}
	recs, err := obs.ReadStore(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("store holds %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Tool != "freshsim" || r.ConfigDigest == "" || r.Seed != 1 {
		t.Fatalf("record provenance: %+v", r)
	}
	if r.Metrics == nil || r.Metrics.Counters["engine/contacts"] <= 0 {
		t.Errorf("record metrics missing engine/contacts: %v", r.Metrics)
	}
	written, err := obs.ReadManifest(filepath.Join(od, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, *written) {
		t.Errorf("store record differs from manifest.json:\n%+v\n%+v", r, *written)
	}
}

// TestRunStoreKeepsCheckpointID: -store is execution policy, not
// simulation config — adding it on resume must not change the experiment
// ID, so the journal still replays.
func TestRunStoreKeepsCheckpointID(t *testing.T) {
	path := smallTraceFile(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.jsonl")
	base := []string{"-trace", path, "-items", "2", "-caching", "4", "-refresh", "4h",
		"-runs", "2", "-checkpoint", ckpt}
	if err := run(base); err != nil {
		t.Fatal(err)
	}
	sp := filepath.Join(dir, "store.jsonl")
	if err := run(append(append([]string{}, base...), "-resume", "-store", sp)); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadStore(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Resume == nil {
		t.Fatalf("store records: %+v", recs)
	}
	if got := recs[0].Resume.CellsReplayed; got != 2 {
		t.Errorf("resumed run replayed %d cells, want 2 (did -store change the experiment ID?)", got)
	}
}

// TestRunJournalExperimentID pins the experiment ID a replicated run
// journals under, so journals written by earlier builds still replay, and
// checks that none of the shared observability, store, checkpoint and
// profiling flags moves it.
func TestRunJournalExperimentID(t *testing.T) {
	const want = "freshsim-99769f5f22ff2639"
	dir := t.TempDir()
	base := []string{"-preset", "infocom-like", "-items", "2", "-queries", "0", "-runs", "2"}
	experiments := func(args ...string) []string {
		t.Helper()
		ckpt := filepath.Join(dir, "ckpt.jsonl")
		if _, err := captureStdout(t, func() error {
			return run(append(append(append([]string{}, base...), "-checkpoint", ckpt), args...))
		}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			var rec struct {
				Experiment string `json:"experiment"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("journal line %q: %v", line, err)
			}
			ids = append(ids, rec.Experiment)
		}
		return ids
	}
	check := func(what string, ids []string) {
		t.Helper()
		if len(ids) != 2 || ids[0] != want || ids[1] != want {
			t.Fatalf("%s: journal experiment IDs %v, want two of %s", what, ids, want)
		}
	}
	check("plain run", experiments())
	if err := os.Remove(filepath.Join(dir, "ckpt.jsonl")); err != nil {
		t.Fatal(err)
	}
	check("every shared flag", experiments("-resume",
		"-obs", filepath.Join(dir, "obs"), "-obs-sample", "2", "-obs-buffer", "1000",
		"-lineage", "-timeline-tick", "1h", "-store", filepath.Join(dir, "store.jsonl"),
		"-cpuprofile", filepath.Join(dir, "cpu.pprof"), "-memprofile", filepath.Join(dir, "mem.pprof")))
}
