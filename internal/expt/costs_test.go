package expt

import (
	"errors"
	"testing"
	"time"

	"freshcache/internal/obs"
)

// TestCellCostsRecorded: every executed cell lands in the collector with
// its wall time; order out of the workers is irrelevant because
// Cells() sorts into grid order.
func TestCellCostsRecorded(t *testing.T) {
	costs := NewCellCosts(0, true)
	s := Sweep{
		Experiment: "cost-test",
		Presets:    []string{"a", "b"},
		Points:     2,
		Schemes:    []string{"x"},
		Parallel:   1,
		BaseSeed:   1,
		Costs:      costs,
	}
	if _, err := s.Run(func(c Cell) ([]float64, error) {
		return []float64{float64(c.Point)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	cells := costs.Cells()
	if len(cells) != 4 {
		t.Fatalf("recorded %d cells, want 4", len(cells))
	}
	for i, c := range cells {
		if c.WallSeconds < 0 {
			t.Errorf("cell %d: %+v", i, c)
		}
		if c.Mallocs == 0 {
			t.Errorf("cell %d: no alloc delta at single worker", i)
		}
	}
	// Grid order: preset-major.
	if cells[0].Preset != "a" || cells[0].Point != 0 || cells[3].Preset != "b" || cells[3].Point != 1 {
		t.Errorf("Cells() not grid-sorted: %+v", cells)
	}
}

// TestCellCostsParallelNoAllocs: at multiple workers wall time still
// records but alloc deltas are suppressed — they'd be cross-worker noise.
func TestCellCostsParallelNoAllocs(t *testing.T) {
	costs := NewCellCosts(0, false)
	s := Sweep{
		Experiment: "cost-par",
		Presets:    []string{"a"},
		Points:     4,
		Parallel:   4,
		BaseSeed:   1,
		Costs:      costs,
	}
	if _, err := s.Run(func(c Cell) ([]float64, error) {
		return []float64{1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range costs.Cells() {
		if c.Mallocs != 0 || c.AllocBytes != 0 {
			t.Errorf("alloc delta recorded without trackAllocs: %+v", c)
		}
	}
}

// TestCellCostsProfiles: with profiling on, only the top-N most expensive
// cells' profiles are retained, most expensive first. The cells advance a
// clock the test owns, by 15, 5, 20 and 10 ms, so the costs do not depend
// on the host: keeping the first or the last two cells, or sorting them
// the wrong way, each retains another pair.
func TestCellCostsProfiles(t *testing.T) {
	costs := NewCellCosts(2, true)
	var clock time.Time
	costs.now = func() time.Time { return clock }
	took := []time.Duration{15 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 10 * time.Millisecond}
	s := Sweep{
		Experiment: "cost-prof",
		Presets:    []string{"a"},
		Points:     len(took),
		Parallel:   1,
		BaseSeed:   1,
		Costs:      costs,
	}
	if _, err := s.Run(func(c Cell) ([]float64, error) {
		clock = clock.Add(took[c.Point])
		return []float64{1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := costs.ProfileErr(); err != nil {
		t.Fatalf("profiling failed: %v", err)
	}
	profs := costs.Profiles()
	if len(profs) != 2 {
		t.Fatalf("retained %d profiles, want 2", len(profs))
	}
	for i, want := range []int{2, 0} {
		if got := profs[i].Cost; got.Point != want || got.WallSeconds != took[want].Seconds() {
			t.Errorf("profile %d is point %d at %v s, want point %d at %v s", i, got.Point, got.WallSeconds, want, took[want].Seconds())
		}
	}
	for _, p := range profs {
		if len(p.Data) == 0 {
			t.Error("empty profile data")
		}
	}
}

// TestCellCostsNilSafe: a nil collector is inert.
func TestCellCostsNilSafe(t *testing.T) {
	var cc *CellCosts
	if cc.Cells() != nil || cc.Profiles() != nil || cc.ProfileErr() != nil || cc.measureAllocs() {
		t.Fatal("nil CellCosts not inert")
	}
	cc.add(obs.CellCost{}, nil)
}

// TestLedgerSnapshot: the ledger's summary reflects every disposition,
// and a nil ledger reports zeros.
func TestLedgerSnapshot(t *testing.T) {
	var l *Ledger
	if sum := l.Summary(); sum != (obs.ResumeSummary{}) {
		t.Fatalf("nil ledger summary = %+v", sum)
	}

	ledger := &Ledger{}
	ledger.addReplayed(3)
	ledger.addExecuted()
	ledger.addExecuted()
	ledger.addSkipped()
	ledger.addFailure(Cell{Experiment: "x"}, errors.New("boom"))
	sum := ledger.Summary()
	if sum.CellsExecuted != 2 || sum.CellsReplayed != 3 ||
		sum.CellsSkipped != 1 || sum.CellsFailed != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestLedgerSnapshotDuringSweep reads the ledger's summary concurrently
// with a running sweep — run with -race.
func TestLedgerSnapshotDuringSweep(t *testing.T) {
	ledger := &Ledger{}
	s := Sweep{
		Experiment: "snap-race",
		Presets:    []string{"a"},
		Points:     8,
		Parallel:   4,
		BaseSeed:   1,
		Ledger:     ledger,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			sum := ledger.Summary()
			if settled := sum.CellsExecuted + sum.CellsReplayed + sum.CellsFailed + sum.CellsSkipped; settled > 8 {
				t.Errorf("settled %d > 8 grid cells", settled)
				return
			}
		}
	}()
	if _, err := s.Run(func(c Cell) ([]float64, error) {
		return []float64{1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-done
	if sum := ledger.Summary(); sum.CellsExecuted != 8 {
		t.Fatalf("final summary = %+v", sum)
	}
}
