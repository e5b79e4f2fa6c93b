package expt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// journalSweep is the fixed grid the checkpoint tests run on.
func journalSweep() Sweep {
	return Sweep{
		Experiment: "J", Presets: []string{"a", "b"}, Points: 2,
		Schemes: []string{"x"}, Replicates: 2, BaseSeed: 11, Parallel: 1,
	}
}

// journalCellFn returns a deterministic metric vector per cell and counts
// invocations, so tests can tell replayed cells from executed ones.
func journalCellFn(execs *atomic.Int32) CellFunc {
	return func(c Cell) ([]float64, error) {
		execs.Add(1)
		return []float64{float64(c.Point*100 + c.Replicate), float64(c.Seed % 97)}, nil
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "ckpt.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s := journalSweep()
	fp := s.Fingerprint()
	cells := s.cells()
	for _, c := range cells {
		if err := j.Record(c, fp, []float64{float64(c.Point), 2}); err != nil {
			t.Fatal(err)
		}
	}
	if j.Len() != len(cells) {
		t.Fatalf("Len = %d, want %d", j.Len(), len(cells))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(cells) {
		t.Fatalf("reloaded Len = %d, want %d", r.Len(), len(cells))
	}
	for _, c := range cells {
		v, ok := r.Lookup(c, fp)
		if !ok {
			t.Fatalf("cell %+v not replayed", c)
		}
		if len(v) != 2 || v[0] != float64(c.Point) || v[1] != 2 {
			t.Fatalf("cell %+v metrics = %v", c, v)
		}
	}
	// A mismatched fingerprint, seed or trace seed must miss.
	if _, ok := r.Lookup(cells[0], "deadbeef"); ok {
		t.Fatal("lookup matched a foreign fingerprint")
	}
	c := cells[0]
	c.Seed++
	if _, ok := r.Lookup(c, fp); ok {
		t.Fatal("lookup matched a mismatched cell seed")
	}
	c = cells[0]
	c.TraceSeed++
	if _, ok := r.Lookup(c, fp); ok {
		t.Fatal("lookup matched a mismatched trace seed")
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if j.Len() != 0 || j.Path() != "" {
		t.Fatal("nil journal not empty")
	}
	if _, ok := j.Lookup(Cell{}, "fp"); ok {
		t.Fatal("nil journal returned a record")
	}
	if err := j.Record(Cell{}, "fp", nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornTrailingLine: a SIGKILL mid-append leaves a truncated last
// line; loading must keep every whole record and silently drop the torn one.
func TestJournalTornTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s := journalSweep()
	fp := s.Fingerprint()
	cells := s.cells()
	for _, c := range cells[:3] {
		if err := j.Record(c, fp, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: append half of a fourth record, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":"freshcache-checkpoint/1","experiment":"J","pre`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 3 {
		t.Fatalf("Len after torn line = %d, want 3", r.Len())
	}
	for _, c := range cells[:3] {
		if _, ok := r.Lookup(c, fp); !ok {
			t.Fatalf("whole record %+v lost to the torn line", c)
		}
	}
	// The journal must still be appendable after the torn tail.
	if err := r.Record(cells[3], fp, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 4 {
		t.Fatalf("Len after append = %d, want 4", r.Len())
	}
}

// TestJournalFreshRunTruncates: without -resume an existing journal is
// truncated, so a fresh run can never splice stale cells.
func TestJournalFreshRunTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	s := journalSweep()
	fp := s.Fingerprint()
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(s.cells()[0], fp, []float64{1}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	fresh, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.Len() != 0 {
		t.Fatalf("fresh journal Len = %d", fresh.Len())
	}
	if b, err := os.ReadFile(path); err != nil || len(b) != 0 {
		t.Fatalf("fresh journal file not truncated: %d bytes, err %v", len(b), err)
	}
}

// TestSweepResumeDeterministic is the tentpole acceptance test: interrupt a
// journaled sweep partway, resume from the journal, and the resumed result
// must be identical to an uninterrupted run — with only the missing cells
// re-executed.
func TestSweepResumeDeterministic(t *testing.T) {
	s := journalSweep()
	var clean atomic.Int32
	want, err := s.Run(journalCellFn(&clean))
	if err != nil {
		t.Fatal(err)
	}
	total := int(clean.Load())

	// Phase 1: journaled run "killed" after half the cells — simulated by
	// truncating the journal file to its first half of lines, exactly what
	// a SIGKILL between appends leaves behind.
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var phase1 atomic.Int32
	s1 := s
	s1.Journal = j
	if _, err := s1.Run(journalCellFn(&phase1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) != total {
		t.Fatalf("journal holds %d records, want %d", len(lines), total)
	}
	kept := lines[:total/2]
	if err := os.WriteFile(path, []byte(strings.Join(kept, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume. Only the lost half may execute.
	r, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var resumed atomic.Int32
	ledger := &Ledger{}
	s2 := s
	s2.Journal = r
	s2.Ledger = ledger
	got, err := s2.Run(journalCellFn(&resumed))
	if err != nil {
		t.Fatal(err)
	}
	if n := int(resumed.Load()); n != total-len(kept) {
		t.Fatalf("resume executed %d cells, want %d", n, total-len(kept))
	}
	if got.ReplayedCells() != len(kept) {
		t.Fatalf("replayed %d cells, want %d", got.ReplayedCells(), len(kept))
	}
	sum := ledger.Summary()
	if sum.CellsReplayed != len(kept) || sum.CellsExecuted != total-len(kept) ||
		sum.CellsFailed != 0 || sum.CellsSkipped != 0 {
		t.Fatalf("ledger summary = %+v", sum)
	}
	for pi := range s.Presets {
		for pt := 0; pt < s.Points; pt++ {
			for m := 0; m < want.Metrics(); m++ {
				if want.Value(pi, pt, 0, m) != got.Value(pi, pt, 0, m) {
					t.Fatalf("cell (%d,%d,0,%d): resumed %v != clean %v",
						pi, pt, m, got.Value(pi, pt, 0, m), want.Value(pi, pt, 0, m))
				}
			}
		}
	}
	// A full resume replays everything and executes nothing.
	r2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	var again atomic.Int32
	s3 := s
	s3.Journal = r2
	if _, err := s3.Run(journalCellFn(&again)); err != nil {
		t.Fatal(err)
	}
	if again.Load() != 0 {
		t.Fatalf("full resume still executed %d cells", again.Load())
	}
}

// TestSweepResumeRejectsChangedConfig: a journal written under one base
// seed (or grid shape) must not replay into a different configuration.
func TestSweepResumeRejectsChangedConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	s := journalSweep()
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int32
	s.Journal = j
	if _, err := s.Run(journalCellFn(&n)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	r, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	changed := journalSweep()
	changed.BaseSeed++ // different config → different fingerprint and seeds
	changed.Journal = r
	var m atomic.Int32
	res, err := changed.Run(journalCellFn(&m))
	if err != nil {
		t.Fatal(err)
	}
	if int(m.Load()) != len(changed.cells()) {
		t.Fatalf("changed config executed %d cells, want all %d", m.Load(), len(changed.cells()))
	}
	if res.ReplayedCells() != 0 {
		t.Fatalf("changed config replayed %d cells", res.ReplayedCells())
	}
	if s.Fingerprint() == changed.Fingerprint() {
		t.Fatal("fingerprint insensitive to base seed")
	}
}

func TestSweepPanicRecovered(t *testing.T) {
	withProcs(t, 4)
	s := Sweep{Experiment: "P", Presets: []string{"a"}, Points: 8, Parallel: 4, BaseSeed: 1}
	_, err := s.Run(func(c Cell) ([]float64, error) {
		if c.Point == 5 {
			panic("cell exploded")
		}
		return []float64{1}, nil
	})
	if err == nil {
		t.Fatal("panic did not surface as an error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if fmt.Sprint(pe.Value) != "cell exploded" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(err.Error(), "cell exploded") {
		t.Fatalf("panic error lost its stack or value: %v", err)
	}
	for _, part := range []string{"P", "preset=a", "point=5"} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("error %q missing %q", err, part)
		}
	}
}

// TestSweepRetryPolicy: a cell is a pure function of its seeds, so a
// failed cell would fail the same way again and the sweep never retries
// it. A failing or panicking cell runs once and lands in the roster.
func TestSweepRetryPolicy(t *testing.T) {
	for _, fail := range []func() ([]float64, error){
		func() ([]float64, error) { return nil, errors.New("permanent") },
		func() ([]float64, error) { panic("permanent") },
	} {
		ledger := &Ledger{}
		s := Sweep{Experiment: "R", Presets: []string{"a"}, Points: 1, Parallel: 1, BaseSeed: 1, Ledger: ledger}
		var calls atomic.Int32
		_, err := s.Run(func(c Cell) ([]float64, error) {
			calls.Add(1)
			return fail()
		})
		if err == nil || !strings.Contains(err.Error(), "permanent") {
			t.Fatalf("err = %v", err)
		}
		if calls.Load() != 1 {
			t.Fatalf("cell ran %d times, want 1", calls.Load())
		}
		if fails := ledger.Failures(); len(fails) != 1 {
			t.Fatalf("failures = %+v", fails)
		}
	}
}

// TestSweepKeepGoingNAHoles: degradation mode finishes the grid, leaves
// explicit NA holes for the failed cells, and records the roster.
func TestSweepKeepGoingNAHoles(t *testing.T) {
	ledger := &Ledger{}
	s := Sweep{Experiment: "K", Presets: []string{"a"}, Points: 4, Schemes: []string{"x", "y"},
		Parallel: 2, BaseSeed: 1, KeepGoing: true, Ledger: ledger}
	res, err := s.Run(func(c Cell) ([]float64, error) {
		if c.Point == 1 && c.Scheme == "y" {
			return nil, errors.New("doomed cell")
		}
		return []float64{float64(10*c.Point) + map[string]float64{"x": 0, "y": 1}[c.Scheme]}, nil
	})
	if err != nil {
		t.Fatalf("keep-going surfaced an error: %v", err)
	}
	if v := res.Value(0, 1, 1, 0); v != "NA" {
		t.Fatalf("failed cell renders %v, want NA", v)
	}
	if m := res.Mean(0, 1, 1, 0); m == m { // NaN check
		t.Fatalf("failed cell mean = %v, want NaN", m)
	}
	if v := res.Value(0, 1, 0, 0).(float64); v != 10 {
		t.Fatalf("surviving sibling cell = %v", v)
	}
	if v := res.Value(0, 3, 1, 0).(float64); v != 31 {
		t.Fatalf("cell after the failure = %v (grid did not finish?)", v)
	}
	sum := ledger.Summary()
	if sum.CellsFailed != 1 || sum.CellsExecuted != 7 || sum.CellsSkipped != 0 {
		t.Fatalf("ledger summary = %+v", sum)
	}
	roster := ledger.Failures()
	if len(roster) != 1 || roster[0].Error != "doomed cell" || roster[0].Point != 1 || roster[0].Scheme != "y" {
		t.Fatalf("roster = %+v", roster)
	}

	// Golden partial table: the hole is an explicit "NA", siblings intact.
	tab := &Table{ID: "K", Title: "keep-going", Header: []string{"point", "x", "y"}}
	for pt := 0; pt < s.Points; pt++ {
		tab.AddRow(pt, res.Value(0, pt, 0, 0), res.Value(0, pt, 1, 0))
	}
	want := "== K: keep-going ==\n" +
		"point  x   y \n" +
		"-----  --  --\n" +
		"0      0   1 \n" +
		"1      10  NA\n" +
		"2      20  21\n" +
		"3      30  31\n"
	if got := tab.Render(); got != want {
		t.Fatalf("partial table:\n%s\nwant:\n%s", got, want)
	}
}

// TestSweepKeepGoingAllReplicatesLost: with replicates, the aggregate is
// over survivors; only a cell losing every replicate becomes a hole.
func TestSweepKeepGoingAllReplicatesLost(t *testing.T) {
	s := Sweep{Experiment: "K", Presets: []string{"a"}, Points: 2, Replicates: 3,
		Parallel: 1, BaseSeed: 1, KeepGoing: true}
	res, err := s.Run(func(c Cell) ([]float64, error) {
		if c.Point == 0 && c.Replicate == 1 {
			return nil, errors.New("one replicate down")
		}
		if c.Point == 1 {
			return nil, errors.New("all replicates down")
		}
		return []float64{float64(c.Replicate)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Point 0 lost replicate 1: mean over {0, 2} = 1.
	if m := res.Mean(0, 0, 0, 0); m != 1 {
		t.Fatalf("survivor mean = %v", m)
	}
	if v := res.Value(0, 1, 0, 0); v != "NA" {
		t.Fatalf("all-replicates-lost cell = %v, want NA", v)
	}
}

// TestSweepFailFastSkipAccounting: after a fail-fast failure the drained
// cells are accounted as skipped, not completed.
func TestSweepFailFastSkipAccounting(t *testing.T) {
	ledger := &Ledger{}
	s := Sweep{Experiment: "F", Presets: []string{"a"}, Points: 6, Parallel: 1,
		BaseSeed: 1, Ledger: ledger}
	_, err := s.Run(func(c Cell) ([]float64, error) {
		if c.Point == 1 {
			return nil, errors.New("fail fast")
		}
		return []float64{1}, nil
	})
	if err == nil {
		t.Fatal("fail-fast error not surfaced")
	}
	sum := ledger.Summary()
	// Sequential worker: point 0 executes, point 1 fails, points 2–5 drain.
	if sum.CellsExecuted != 1 || sum.CellsFailed != 1 || sum.CellsSkipped != 4 {
		t.Fatalf("ledger summary = %+v", sum)
	}
	if sum.CellsExecuted+sum.CellsFailed+sum.CellsSkipped+sum.CellsReplayed != 6 {
		t.Fatalf("dispositions do not cover the grid: %+v", sum)
	}
}

// TestSweepJournalSkipsFailures: failed cells must not be journaled — a
// resume has to re-attempt them.
func TestSweepJournalSkipsFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s := Sweep{Experiment: "F", Presets: []string{"a"}, Points: 3, Parallel: 1,
		BaseSeed: 1, KeepGoing: true, Journal: j}
	if _, err := s.Run(func(c Cell) ([]float64, error) {
		if c.Point == 1 {
			return nil, errors.New("broken")
		}
		return []float64{1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	r, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("journal holds %d records, want 2 (failure excluded)", r.Len())
	}
	var reruns atomic.Int32
	s2 := s
	s2.Journal = r
	res, err := s2.Run(func(c Cell) ([]float64, error) {
		reruns.Add(1)
		if c.Point != 1 {
			t.Errorf("cell point %d re-executed despite journal", c.Point)
		}
		return []float64{2}, nil // recovered this time
	})
	if err != nil {
		t.Fatal(err)
	}
	if reruns.Load() != 1 {
		t.Fatalf("resume executed %d cells, want 1", reruns.Load())
	}
	if v := res.Value(0, 1, 0, 0).(float64); v != 2 {
		t.Fatalf("re-attempted cell = %v", v)
	}
}
