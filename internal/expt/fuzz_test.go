package expt

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzOpenJournal feeds arbitrary bytes to checkpoint replay
// (OpenJournal with resume). Whatever the file holds, replay must not
// panic, and every record it accepts must survive being journaled again
// and replayed unchanged. The seed corpus runs with the normal test suite;
// `go test -fuzz=FuzzOpenJournal ./internal/expt` explores further.
func FuzzOpenJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		f.Fatal(err)
	}
	s := journalSweep()
	for i, c := range s.cells()[:3] {
		if err := j.Record(c, s.Fingerprint(), []float64{float64(i), 0.5, -1e-300}); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	whole := string(b)
	f.Add([]byte(whole))
	f.Add([]byte(whole + `{"schema":"freshcache-checkpoint/1","experiment":"J","pre`)) // torn trailing record
	f.Add([]byte("{broken\n" + whole))                                                 // mid-file corruption
	f.Add([]byte(whole + `{"schema":"freshcache-checkpoint/999","experiment":"J"}` + "\n"))
	f.Add([]byte(`{"schema":"freshcache-checkpoint/1","metrics":null}` + "\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.jsonl")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(in, true)
		if err != nil {
			return
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "out.jsonl")
		w, err := OpenJournal(out, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range j.seen {
			c := Cell{Experiment: rec.Experiment, Preset: rec.Preset, Point: rec.Point, Scheme: rec.Scheme,
				Replicate: rec.Replicate, Seed: rec.Seed, TraceSeed: rec.TraceSeed}
			if err := w.Record(c, rec.Fingerprint, rec.Metrics); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenJournal(out, true)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if !reflect.DeepEqual(r.seen, j.seen) {
			t.Fatalf("replayed records changed across a write-then-read round trip:\n%v\nvs\n%v", r.seen, j.seen)
		}
	})
}
