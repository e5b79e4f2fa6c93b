package mobility

import (
	"math"
	"testing"

	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

func TestHeterogeneousExpGenerates(t *testing.T) {
	g := &HeterogeneousExp{
		TraceName:      "hx",
		N:              20,
		Duration:       10 * Day,
		MeanRate:       2.0 / Day,
		RateShape:      0.7,
		PairFraction:   0.8,
		MeanContactDur: 120,
	}
	tr, err := g.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.N != 20 || tr.Name != "hx" {
		t.Fatalf("trace header: %+v", tr)
	}
	s := tr.ComputeStats()
	// ~0.8 of pairs meet at mean rate 2/day over 10 days: expect roughly
	// 0.8 * 190 * 20 = ~3000 contacts; accept a broad band.
	if s.Contacts < 1000 || s.Contacts > 9000 {
		t.Fatalf("contact count %d implausible", s.Contacts)
	}
	if s.PairCoverage < 0.5 || s.PairCoverage > 0.95 {
		t.Fatalf("pair coverage %v implausible for PairFraction=0.8", s.PairCoverage)
	}
}

func TestHeterogeneousExpDeterministic(t *testing.T) {
	g := &HeterogeneousExp{TraceName: "hx", N: 10, Duration: Day, MeanRate: 5.0 / Day, RateShape: 1, PairFraction: 1, MeanContactDur: 60}
	a, err := g.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Contacts) != len(b.Contacts) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Contacts), len(b.Contacts))
	}
	for i := range a.Contacts {
		if a.Contacts[i] != b.Contacts[i] {
			t.Fatalf("contact %d differs", i)
		}
	}
	c, err := g.Generate(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Contacts) == len(a.Contacts) {
		same := true
		for i := range c.Contacts {
			if c.Contacts[i] != a.Contacts[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestHeterogeneousExpMeanRateCalibration(t *testing.T) {
	// With shape=1 (no heterogeneity beyond exponential) and all pairs
	// meeting, the realized mean pair rate should track MeanRate.
	g := &HeterogeneousExp{TraceName: "cal", N: 30, Duration: 30 * Day, MeanRate: 3.0 / Day, RateShape: 1, PairFraction: 1, MeanContactDur: 60}
	tr, err := g.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.ComputeStats()
	want := 3.0 / Day
	if math.Abs(s.MeanPairRate-want) > 0.25*want {
		t.Fatalf("mean pair rate = %v, want ~%v", s.MeanPairRate, want)
	}
}

func TestHeterogeneousExpValidation(t *testing.T) {
	bad := []*HeterogeneousExp{
		{N: 1, Duration: 1, MeanRate: 1, RateShape: 1, PairFraction: 1, MeanContactDur: 1},
		{N: 5, Duration: 0, MeanRate: 1, RateShape: 1, PairFraction: 1, MeanContactDur: 1},
		{N: 5, Duration: 1, MeanRate: 0, RateShape: 1, PairFraction: 1, MeanContactDur: 1},
		{N: 5, Duration: 1, MeanRate: 1, RateShape: 0, PairFraction: 1, MeanContactDur: 1},
		{N: 5, Duration: 1, MeanRate: 1, RateShape: 1, PairFraction: 0, MeanContactDur: 1},
		{N: 5, Duration: 1, MeanRate: 1, RateShape: 1, PairFraction: 1.5, MeanContactDur: 1},
		{N: 5, Duration: 1, MeanRate: 1, RateShape: 1, PairFraction: 1, MeanContactDur: 0},
	}
	// NaN passes every range test written as x <= 0, and +Inf passes a
	// positivity test: each float parameter must reject both.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		for _, set := range []func(*HeterogeneousExp){
			func(g *HeterogeneousExp) { g.Duration = v },
			func(g *HeterogeneousExp) { g.MeanRate = v },
			func(g *HeterogeneousExp) { g.RateShape = v },
			func(g *HeterogeneousExp) { g.PairFraction = v },
			func(g *HeterogeneousExp) { g.MeanContactDur = v },
		} {
			g := &HeterogeneousExp{N: 5, Duration: 1, MeanRate: 1, RateShape: 1, PairFraction: 1, MeanContactDur: 1}
			set(g)
			bad = append(bad, g)
		}
	}
	// validate, not Generate: a generator handed a parameter the check
	// misses may never stop, as an infinite duration keeps drawing
	// contacts until memory runs out.
	for i, g := range bad {
		if err := g.validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestCommunityStructure(t *testing.T) {
	g := &Community{
		TraceName:         "comm",
		N:                 40,
		Duration:          20 * Day,
		Communities:       4,
		IntraRate:         6.0 / Day,
		InterRate:         0.3 / Day,
		RateShape:         0.8,
		InterPairFraction: 0.5,
		HubFraction:       0.1,
		HubBoost:          3,
		MeanContactDur:    100,
	}
	tr, err := g.Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per-node contact counts must be heavily skewed (hubs).
	counts := make([]float64, tr.N)
	for _, c := range tr.Contacts {
		counts[c.A]++
		counts[c.B]++
	}
	s := stats.Summarize(counts)
	if s.Max < 2*s.Median {
		t.Fatalf("no hub skew: max=%v median=%v", s.Max, s.Median)
	}
}

func TestCommunityValidation(t *testing.T) {
	base := func() *Community {
		return &Community{N: 10, Duration: Day, Communities: 2, IntraRate: 1.0 / Day,
			InterRate: 0.1 / Day, RateShape: 1, InterPairFraction: 0.5,
			HubFraction: 0.1, HubBoost: 2, MeanContactDur: 60}
	}
	mutations := []func(*Community){
		func(g *Community) { g.N = 1 },
		func(g *Community) { g.Duration = 0 },
		func(g *Community) { g.Communities = 0 },
		func(g *Community) { g.Communities = 11 },
		func(g *Community) { g.IntraRate = 0 },
		func(g *Community) { g.InterRate = -1 },
		func(g *Community) { g.RateShape = 0 },
		func(g *Community) { g.InterPairFraction = 2 },
		func(g *Community) { g.HubFraction = 2 },
		func(g *Community) { g.HubBoost = 0.5 },
		func(g *Community) { g.MeanContactDur = 0 },
	}
	// NaN passes every range test written as x <= 0, and +Inf passes a
	// positivity test: each float parameter must reject both.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		mutations = append(mutations,
			func(g *Community) { g.Duration = v },
			func(g *Community) { g.IntraRate = v },
			func(g *Community) { g.InterRate = v },
			func(g *Community) { g.RateShape = v },
			func(g *Community) { g.InterPairFraction = v },
			func(g *Community) { g.HubFraction = v },
			func(g *Community) { g.HubBoost = v },
			func(g *Community) { g.MeanContactDur = v })
	}
	// validate, not Generate, as in TestHeterogeneousExpValidation.
	for i, mut := range mutations {
		g := base()
		mut(g)
		if err := g.validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDiurnalRemovesNightContacts(t *testing.T) {
	g := &Diurnal{
		Gen: &HeterogeneousExp{TraceName: "d", N: 20, Duration: 5 * Day,
			MeanRate: 10.0 / Day, RateShape: 1, PairFraction: 1, MeanContactDur: 60},
		NightStart: 0,
		NightEnd:   8 * Hour,
	}
	tr, err := g.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Contacts {
		tod := math.Mod(c.Start, Day)
		if tod < 8*Hour {
			t.Fatalf("night contact survived at tod=%v", tod)
		}
	}
	if len(tr.Contacts) == 0 {
		t.Fatal("diurnal filter removed everything")
	}
}

func TestDiurnalBadWindow(t *testing.T) {
	g := &Diurnal{Gen: RealityLike(), NightStart: 5, NightEnd: 5}
	if _, err := g.Generate(1); err == nil {
		t.Fatal("empty night window accepted")
	}
}

func TestPresetsGenerate(t *testing.T) {
	for name, ctor := range Presets() {
		name, ctor := name, ctor
		t.Run(name, func(t *testing.T) {
			tr, err := ctor().Generate(42)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			s := tr.ComputeStats()
			if s.Contacts < 5000 {
				t.Fatalf("%s: only %d contacts; preset too sparse to drive experiments", name, s.Contacts)
			}
			t.Logf("%s: %+v", name, s)
		})
	}
}

func TestPresetShapes(t *testing.T) {
	r, err := RealityLike().Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	i, err := InfocomLike().Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 97 || i.N != 78 {
		t.Fatalf("preset sizes: reality=%d infocom=%d", r.N, i.N)
	}
	rs, is := r.ComputeStats(), i.ComputeStats()
	// Infocom must be the denser trace per unit time.
	rDensity := float64(rs.Contacts) / r.Duration
	iDensity := float64(is.Contacts) / i.Duration
	if iDensity <= rDensity {
		t.Fatalf("infocom density %v not above reality %v", iDensity, rDensity)
	}
}

func TestPresetLookup(t *testing.T) {
	if _, err := Preset("reality-like"); err != nil {
		t.Fatal(err)
	}
	if _, err := Preset("bogus"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestGeneratorsPresizeContacts: both presets and the E21 generator, at
// seeds 1–5, fill the contact slice they size from their own parameters
// without regrowing it: the community model's count stays within the hint,
// and the slice keeps that capacity through Normalize. The presets' diurnal
// thinning then keeps its contacts in a slice of their own size. The
// heterogeneous model's dense and sparse paths, which size from
// parameters alone, must fill theirs too.
func TestGeneratorsPresizeContacts(t *testing.T) {
	generate := func(gen Generator, seed int64) []trace.Contact {
		t.Helper()
		tr, err := gen.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Contacts
	}
	check := func(name string, seed int64, cs []trace.Contact, hint int) {
		t.Helper()
		if cap(cs) != hint {
			t.Errorf("%s seed %d: %d contacts in a slice of capacity %d, want the hint %d", name, seed, len(cs), cap(cs), hint)
		}
	}
	for _, gen := range []Generator{RealityLike(), InfocomLike(), LargeCommunity(2000), LargeCommunity(5000)} {
		g, ok := gen.(*Community)
		if d, diurnal := gen.(*Diurnal); diurnal {
			g, ok = d.Gen.(*Community)
		}
		if !ok {
			t.Fatalf("%s is not a community model", gen.Name())
		}
		for seed := int64(1); seed <= 5; seed++ {
			_, comm, boost := g.nodes(seed)
			check(g.Name(), seed, generate(g, seed), cap(presized(g.expectedContacts(comm, boost))))
			if gen == Generator(g) {
				continue
			}
			// A copy has room only for its size's rounding: a few pages
			// at most, under 1% of a preset's contacts.
			if cs := generate(gen, seed); cap(cs) > len(cs)+len(cs)/100 {
				t.Errorf("%s seed %d: diurnal trace keeps %d contacts in a slice of capacity %d", gen.Name(), seed, len(cs), cap(cs))
			}
		}
	}
	for _, g := range []*HeterogeneousExp{
		{TraceName: "hetexp", N: 60, Duration: 10 * Day, MeanRate: 2.0 / Day, RateShape: 0.8, PairFraction: 0.5, MeanContactDur: 300},
		{TraceName: "hetexp-sparse", N: 2000, Duration: 4 * Day, MeanRate: 2.0 / Day, RateShape: 0.8, PairFraction: 0.01, MeanContactDur: 120},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			check(g.Name(), seed, generate(g, seed), cap(presized(g.expectedContacts())))
		}
	}
}

// TestPresizedRefusesAbsurdEstimates: an estimate of 1<<24 contacts or
// more, infinite or NaN gets no capacity, and one whose rates would make
// contacts fill the duration is capped at a pair's end-to-end contacts.
func TestPresizedRefusesAbsurdEstimates(t *testing.T) {
	for _, e := range []float64{1 << 24, math.Inf(1), math.NaN()} {
		if c := presized(e); c != nil {
			t.Errorf("presized(%v) has capacity %d, want none", e, cap(c))
		}
	}
	g := &HeterogeneousExp{TraceName: "busy", N: 10, Duration: Day, MeanRate: 1, RateShape: 1, PairFraction: 1, MeanContactDur: 60}
	if got, want := g.expectedContacts(), 45*(Day/60+1); got != want {
		t.Errorf("45 pairs meeting every second for 60 s contacts expect %v contacts, want the cap %v", got, want)
	}
}

// TestPhasesSizeContactsExactly: a phased trace's contact slice holds its
// segments' contacts with no room to spare.
func TestPhasesSizeContactsExactly(t *testing.T) {
	tr, err := DriftingCommunity(40, Day).Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Contacts) == 0 || cap(tr.Contacts) != len(tr.Contacts) {
		t.Fatalf("%d contacts in a slice of capacity %d", len(tr.Contacts), cap(tr.Contacts))
	}
}
