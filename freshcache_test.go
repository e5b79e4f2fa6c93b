package freshcache

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"freshcache/internal/obs"
)

func quickOpts(extra ...Option) []Option {
	base := []Option{
		WithPreset("infocom-like"),
		WithUniformItems(3, 2*time.Hour),
		WithCachingNodes(6),
		WithSeed(7),
	}
	return append(base, extra...)
}

func TestQuickstartFlow(t *testing.T) {
	sim, err := New(quickOpts(
		WithScheme(SchemeHierarchical),
		WithQueryWorkload(4, 1.0),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "hierarchical" || res.Trace != "infocom-like" {
		t.Fatalf("result header: %+v", res)
	}
	if res.FreshnessRatio <= 0 || res.FreshnessRatio > 1 {
		t.Fatalf("freshness = %v", res.FreshnessRatio)
	}
	if res.Queries == 0 || res.Answered == 0 {
		t.Fatalf("workload never ran: %+v", res)
	}
	if len(sim.CachingNodes()) != 6 {
		t.Fatalf("caching nodes: %v", sim.CachingNodes())
	}
	cdf := sim.DelayCDF(30*time.Minute, 2*time.Hour, 24*time.Hour)
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatalf("CDF not monotone: %v", cdf)
		}
	}
	if r := sim.FirstDeliveryOnTimeRatio(); r <= 0 || r > 1 {
		t.Fatalf("on-time ratio = %v", r)
	}
}

// TestWithRecording: every collector of an Observer's Recording reaches
// the engine, and committing the run hands them back for export.
func TestWithRecording(t *testing.T) {
	o := obs.NewObserver(obs.Config{Lineage: true, TimelineTick: 3600})
	rec := o.Open("api", "hierarchical")
	sim, err := New(quickOpts(WithRecording(rec))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	o.Commit(rec)
	st := o.Stats()
	if st.Runs != 1 || st.Seen == 0 || st.Spans == 0 || st.TimelinePoints == 0 {
		t.Fatalf("recording incomplete: %+v", st)
	}
	if o.Metrics.Counter("engine/contacts").Value() == 0 {
		t.Fatal("registry never counted a contact")
	}
}

func TestRunTwiceRejected(t *testing.T) {
	sim, err := New(quickOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestExactlyOneTraceSource(t *testing.T) {
	if _, err := New(WithUniformItems(1, time.Hour)); err == nil {
		t.Fatal("no trace source accepted")
	}
	_, err := New(
		WithPreset("infocom-like"),
		WithTraceFile("x"),
		WithUniformItems(1, time.Hour),
	)
	if err == nil {
		t.Fatal("two trace sources accepted")
	}
}

func TestItemsRequired(t *testing.T) {
	if _, err := New(WithPreset("infocom-like")); err == nil {
		t.Fatal("missing items accepted")
	}
}

func TestWithItemsDefaults(t *testing.T) {
	sim, err := New(
		WithPreset("infocom-like"),
		WithItems(ItemSpec{Source: 0, Refresh: 2 * time.Hour}),
		WithCachingNodes(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWithContacts(t *testing.T) {
	// A tiny custom trace: node 0 is the source, 1 and 2 caching.
	var contacts []Contact
	add := func(a, b int, at time.Duration) {
		contacts = append(contacts, Contact{A: a, B: b, Start: at, End: at + 5*time.Second})
	}
	for i := 0; i < 5; i++ {
		add(0, 1, time.Duration(i+1)*time.Minute)
		add(1, 2, time.Duration(i+1)*time.Minute+30*time.Second)
		add(2, 3, time.Duration(i+1)*time.Minute+45*time.Second)
	}
	// Measurement phase contacts.
	for i := 10; i < 50; i += 5 {
		add(0, 1, time.Duration(i)*time.Minute)
		add(1, 2, time.Duration(i+2)*time.Minute)
	}
	sim, err := New(
		WithContacts(4, time.Hour, contacts),
		WithUniformItems(1, 10*time.Minute),
		WithCachingNodes(2),
		WithScheme(SchemeHierarchical),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deliveries == 0 {
		t.Fatal("custom trace produced no deliveries")
	}
}

func TestWithContactsInvalid(t *testing.T) {
	_, err := New(
		WithContacts(2, time.Hour, []Contact{{A: 0, B: 0, Start: 0, End: time.Second}}),
		WithUniformItems(1, time.Hour),
	)
	if err == nil {
		t.Fatal("self-contact accepted")
	}
}

func TestWithTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.contacts")
	content := "# nodes: 6\n# duration: 7200\n"
	// Warmup and measurement contacts between source 0 and nodes 1..3.
	lines := ""
	for i := 0; i < 20; i++ {
		at := 60 * (i + 1)
		lines += tformat(0, 1, at) + tformat(1, 2, at+20) + tformat(2, 3, at+40)
	}
	if err := writeFile(path, content+lines); err != nil {
		t.Fatal(err)
	}
	sim, err := New(
		WithTraceFile(path),
		WithUniformItems(1, 20*time.Minute),
		WithCachingNodes(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionValidation(t *testing.T) {
	bad := [][]Option{
		{WithPreset("bogus")},
		{WithTraceFile("")},
		{WithScheme("bogus")},
		{WithItems()},
		{WithUniformItems(0, time.Hour)},
		{WithCachingNodes(0)},
		{WithQueryWorkload(0, 1)},
		{WithQueryWorkload(1, 0)},
		{WithFreshnessRequirement(0)},
		{WithFreshnessRequirement(1.5)},
		{WithHierarchyFanout(0)},
		{WithMaxRelays(0)},
		{WithWarmupFraction(1)},
		{WithCacheCapacity(0)},
		{WithCachePolicy("random")},
		{WithMessageLoss(-0.1)},
		{WithMessageLoss(1)},
		{WithChurn(0, time.Hour)},
		{WithQueryDelegation(0)},
		{WithRebuildInterval(0)},
		{nil},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = append(bad,
			[]Option{WithQueryWorkload(v, 1)},
			[]Option{WithQueryWorkload(1, v)},
			[]Option{WithFreshnessRequirement(v)},
			[]Option{WithWarmupFraction(v)},
			[]Option{WithMessageLoss(v)})
	}
	for i, opts := range bad {
		if _, err := New(opts...); err == nil {
			t.Errorf("bad option set %d accepted", i)
		}
	}
}

func TestSchemesAndPresetsExposed(t *testing.T) {
	ss := Schemes()
	if len(ss) != 8 {
		t.Fatalf("schemes: %v", ss)
	}
	found := false
	for _, s := range ss {
		if s == SchemeHierarchical {
			found = true
		}
	}
	if !found {
		t.Fatal("hierarchical missing")
	}
	if len(Presets()) != 2 {
		t.Fatalf("presets: %v", Presets())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Result {
		sim, err := New(quickOpts(WithQueryWorkload(2, 1.0))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FreshnessRatio != b.FreshnessRatio || a.Transmissions != b.Transmissions || a.Answered != b.Answered {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	infos := Experiments()
	if len(infos) != 21 {
		t.Fatalf("experiments: %d", len(infos))
	}
	if infos[0].ID != "E1" {
		t.Fatalf("first experiment: %+v", infos[0])
	}
}

func TestRunExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	tables, err := RunExperiment("E1", 42, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || len(tables[0].Rows) == 0 {
		t.Fatal("empty experiment output")
	}
	if _, err := RunExperiment("E99", 42, true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
