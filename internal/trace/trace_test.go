package trace

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func validTrace() *Trace {
	return &Trace{
		Name:     "t",
		N:        4,
		Duration: 100,
		Contacts: []Contact{
			{A: 0, B: 1, Start: 1, End: 2},
			{A: 0, B: 1, Start: 10, End: 12},
			{A: 1, B: 2, Start: 10, End: 15},
			{A: 2, B: 3, Start: 20, End: 30},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trace)
		want   error
	}{
		{"no nodes", func(tr *Trace) { tr.N = 0 }, ErrNoNodes},
		{"NaN duration", func(tr *Trace) { tr.Duration = math.NaN() }, ErrBadDuration},
		{"infinite duration", func(tr *Trace) { tr.Duration = math.Inf(1) }, ErrBadDuration},
		{"NaN start", func(tr *Trace) { tr.Contacts[1].Start = math.NaN() }, ErrBadContact},
		{"NaN end", func(tr *Trace) { tr.Contacts[1].End = math.NaN() }, ErrBadContact},
		{"self contact", func(tr *Trace) { tr.Contacts[0].B = 0 }, ErrBadContact},
		{"node out of range", func(tr *Trace) { tr.Contacts[0].B = 9 }, ErrBadContact},
		{"unordered pair", func(tr *Trace) { tr.Contacts[0].A, tr.Contacts[0].B = 1, 0 }, ErrBadContact},
		{"empty interval", func(tr *Trace) { tr.Contacts[0].End = tr.Contacts[0].Start }, ErrBadContact},
		{"negative start", func(tr *Trace) { tr.Contacts[0].Start = -1 }, ErrBadContact},
		{"unsorted", func(tr *Trace) { tr.Contacts[0].Start, tr.Contacts[0].End = 50, 60 }, ErrUnsorted},
		{"beyond duration", func(tr *Trace) { tr.Contacts[3].End = 1000 }, ErrBeyondDuration},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := validTrace()
			tc.mutate(tr)
			if err := tr.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestNormalize(t *testing.T) {
	tr := &Trace{N: 3, Duration: 10, Contacts: []Contact{
		{A: 2, B: 1, Start: 5, End: 6},
		{A: 1, B: 0, Start: 1, End: 2},
	}}
	tr.Normalize()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Contacts[0].Start != 1 || tr.Contacts[1].A != 1 || tr.Contacts[1].B != 2 {
		t.Fatalf("normalize wrong: %+v", tr.Contacts)
	}
}

// Property: Normalize always yields a Validate-clean trace from arbitrary
// well-typed contact soup, of sizes that reach a leaf's bucket pass.
func TestNormalizeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, sizeRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%20)
		tr := &Trace{N: n, Duration: 1000}
		for i := 0; i < int(sizeRaw%4096); i++ {
			a := NodeID(rng.Intn(n))
			b := NodeID(rng.Intn(n))
			if a == b {
				continue
			}
			start := rng.Float64() * 900
			tr.Contacts = append(tr.Contacts, Contact{A: a, B: b, Start: start, End: start + 1 + rng.Float64()*50})
		}
		tr.Normalize()
		return tr.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlice(t *testing.T) {
	tr := validTrace()
	got := tr.Slice(5, 15)
	if len(got.Contacts) != 2 {
		t.Fatalf("slice len = %d, want 2", len(got.Contacts))
	}
	for _, c := range got.Contacts {
		if c.Start < 5 || c.Start >= 15 {
			t.Fatalf("contact %+v outside slice", c)
		}
	}
	// Original untouched.
	if len(tr.Contacts) != 4 {
		t.Fatal("slice mutated original")
	}
}

func TestPairKeySymmetric(t *testing.T) {
	if PairKey(1, 3, 5) != PairKey(3, 1, 5) {
		t.Fatal("PairKey not symmetric")
	}
	if PairKey(1, 3, 5) == PairKey(1, 2, 5) {
		t.Fatal("PairKey collision")
	}
}

func TestComputeStats(t *testing.T) {
	s := validTrace().ComputeStats()
	if s.Nodes != 4 || s.Contacts != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MeetingPairs != 3 {
		t.Fatalf("meeting pairs = %d, want 3", s.MeetingPairs)
	}
	// 3 of 6 possible pairs met.
	if math.Abs(s.PairCoverage-0.5) > 1e-12 {
		t.Fatalf("coverage = %v, want 0.5", s.PairCoverage)
	}
	// Pair (0,1) has 2 contacts, others 1: mean 4/3.
	if math.Abs(s.ContactsPerPair-4.0/3.0) > 1e-12 {
		t.Fatalf("contacts/pair = %v", s.ContactsPerPair)
	}
	// Durations: 1 + 2 + 5 + 10 = 18 over 4 contacts.
	if math.Abs(s.MeanContactDur-4.5) > 1e-12 {
		t.Fatalf("mean dur = %v", s.MeanContactDur)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	tr := &Trace{N: 3, Duration: 10}
	s := tr.ComputeStats()
	if s.Contacts != 0 || s.MeanContactDur != 0 || s.PairCoverage != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestPairRates(t *testing.T) {
	tr := validTrace()
	rates, err := tr.PairRates(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := rates[PairKey(0, 1, 4)]; math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("rate(0,1) = %v, want 0.02", got)
	}
	if got := rates[PairKey(0, 3, 4)]; got != 0 {
		t.Fatalf("rate(0,3) = %v, want 0", got)
	}
	if _, err := tr.PairRates(10, 10); err == nil {
		t.Fatal("empty window accepted")
	}
}

// TestInterContactGaps: every pair's gaps in one slice, pairs in
// ascending PairKey order and each pair's gaps in time order.
func TestInterContactGaps(t *testing.T) {
	tr := &Trace{N: 4, Duration: 100, Contacts: []Contact{
		{A: 2, B: 3, Start: 1, End: 2},
		{A: 0, B: 1, Start: 2, End: 3},
		{A: 2, B: 3, Start: 4, End: 5},
		{A: 0, B: 1, Start: 7, End: 8},
		{A: 2, B: 3, Start: 12, End: 13},
		{A: 0, B: 1, Start: 20, End: 21},
	}}
	if got, want := tr.InterContactGaps(), []float64{5, 13, 3, 8}; !slices.Equal(got, want) {
		t.Fatalf("gaps = %v, want %v", got, want)
	}
}

func TestInterContactTimes(t *testing.T) {
	gaps := validTrace().InterContactTimes()
	k := PairKey(0, 1, 4)
	if len(gaps[k]) != 1 || gaps[k][0] != 9 {
		t.Fatalf("gaps(0,1) = %v, want [9]", gaps[k])
	}
	if len(gaps[PairKey(1, 2, 4)]) != 0 {
		t.Fatal("single-contact pair must have no gaps")
	}
}
