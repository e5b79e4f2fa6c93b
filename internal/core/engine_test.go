package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"freshcache/internal/cache"
	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
	"freshcache/internal/obs"
	"freshcache/internal/trace"
)

// testScenarioTrace builds a mid-size community trace shared by the
// end-to-end tests.
func testScenarioTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	g := &mobility.Community{
		TraceName: "e2e", N: 40, Duration: 12 * mobility.Day, Communities: 4,
		IntraRate: 8.0 / mobility.Day, InterRate: 1.0 / mobility.Day, RateShape: 0.8,
		InterPairFraction: 0.7, HubFraction: 0.1, HubBoost: 3, MeanContactDur: 180,
	}
	tr, err := g.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testScenarioCatalog(t *testing.T, refresh float64) *cache.Catalog {
	t.Helper()
	items := []cache.Item{
		{ID: 0, Source: 0, RefreshInterval: refresh, FreshnessWindow: refresh, Lifetime: 2 * refresh, Size: 1},
		{ID: 1, Source: 1, RefreshInterval: refresh, FreshnessWindow: refresh, Lifetime: 2 * refresh, Size: 1},
		{ID: 2, Source: 2, RefreshInterval: refresh, FreshnessWindow: refresh, Lifetime: 2 * refresh, Size: 1},
	}
	cat, err := cache.NewCatalog(items)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func runScheme(t *testing.T, s Scheme, seed int64) metrics.Result {
	t.Helper()
	eng, err := NewEngine(Config{
		Trace:           testScenarioTrace(t, seed),
		Catalog:         testScenarioCatalog(t, 4*mobility.Hour),
		Scheme:          s,
		NumCachingNodes: 6,
		Workload:        cache.WorkloadConfig{QueryRate: 1.0 / (2 * mobility.Hour), ZipfExponent: 1.0},
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestQueryDropCounted: a workload query for an item the catalog does not
// know must be counted as dropped — in the engine's result field and the
// metric registry — instead of vanishing silently.
func TestQueryDropCounted(t *testing.T) {
	reg := obs.NewRegistry()
	eng, err := NewEngine(Config{
		Trace:           testScenarioTrace(t, 1),
		Catalog:         testScenarioCatalog(t, 4*mobility.Hour),
		Scheme:          NewDirect(),
		NumCachingNodes: 6,
		Recording:       obs.Recording{Metrics: reg},
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.issueQuery(&cache.Query{Item: 99, Requester: 5, IssuedAt: 0}, 0)
	eng.issueQuery(&cache.Query{Item: 999, Requester: 6, IssuedAt: 0}, 0)
	if eng.queryDrops != 2 {
		t.Fatalf("queryDrops = %d, want 2", eng.queryDrops)
	}
	if got := reg.Counter("engine/query_drops").Value(); got != 2 {
		t.Fatalf("engine/query_drops = %d, want 2", got)
	}
	if n := len(eng.book.All()); n != 0 {
		t.Fatalf("dropped queries were issued to the book: %d", n)
	}
	// A known item is issued, not dropped.
	eng.issueQuery(&cache.Query{Item: 0, Requester: 5, IssuedAt: 0}, 0)
	if eng.queryDrops != 2 || len(eng.book.All()) != 1 {
		t.Fatalf("valid query mishandled: drops=%d issued=%d", eng.queryDrops, len(eng.book.All()))
	}
}

func TestSchemeOrderingOnFreshness(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	results := map[string]metrics.Result{}
	for _, spec := range Schemes() {
		results[spec.Name] = runScheme(t, spec.New(), 77)
	}
	for name, r := range results {
		t.Logf("%s: %s", name, r.String())
	}

	ep, hi, hn, dr, di, no :=
		results["epidemic"], results["hierarchical"],
		results["hierarchical-norep"], results["direct-rep"], results["direct"], results["norefresh"]

	// The abstract's headline: hierarchical significantly improves
	// freshness over source-only refreshing.
	if hi.FreshnessRatio <= di.FreshnessRatio*1.2 {
		t.Errorf("hierarchical freshness %v not significantly above direct %v", hi.FreshnessRatio, di.FreshnessRatio)
	}
	// Ceilings and floors. No scheme delivers before the trace's foremost
	// journey, and epidemic delivers at it (checkInvariants,
	// TestEpidemicMeetsForemostJourney). With no loss, churn or eviction,
	// epidemic then holds a version at least as new at every cache at
	// every instant, so no scheme's freshness may exceed its own.
	for name, r := range results {
		if r.FreshnessRatio > ep.FreshnessRatio {
			t.Errorf("%s freshness %v above epidemic's %v", name, r.FreshnessRatio, ep.FreshnessRatio)
		}
	}
	if no.FreshnessRatio > di.FreshnessRatio {
		t.Errorf("norefresh %v above direct %v", no.FreshnessRatio, di.FreshnessRatio)
	}
	if no.FreshnessRatio > 0.2 {
		t.Errorf("norefresh freshness %v; should decay to ~0", no.FreshnessRatio)
	}
	// Ablations. Replication buys freshness given the hierarchy:
	if hi.FreshnessRatio < hn.FreshnessRatio-0.02 {
		t.Errorf("replication hurt freshness: %v vs %v", hi.FreshnessRatio, hn.FreshnessRatio)
	}
	// The hierarchy trades at most a small freshness gap vs source-central
	// replication for a large drop in source load (its design point):
	if hi.FreshnessRatio < dr.FreshnessRatio-0.08 {
		t.Errorf("hierarchy lost too much freshness: %v vs direct-rep %v", hi.FreshnessRatio, dr.FreshnessRatio)
	}
	if di.SourceTxShare < 0.99 {
		t.Errorf("direct source share %v, want 1 (only sources send)", di.SourceTxShare)
	}
	if dr.SourceTxShare < 0.6 {
		t.Errorf("direct-rep source share %v, want source-dominated", dr.SourceTxShare)
	}
	if hi.SourceTxShare > 0.6*dr.SourceTxShare {
		t.Errorf("hierarchy did not distribute load: source share %v vs direct-rep %v", hi.SourceTxShare, dr.SourceTxShare)
	}

	// Overhead ordering: epidemic must dwarf hierarchical, which exceeds
	// direct.
	if ep.TxPerVersion < 2.5*hi.TxPerVersion {
		t.Errorf("epidemic overhead %v not well above hierarchical %v", ep.TxPerVersion, hi.TxPerVersion)
	}
	if hi.TxPerVersion <= di.TxPerVersion {
		t.Errorf("hierarchical overhead %v not above direct %v", hi.TxPerVersion, di.TxPerVersion)
	}

	// Query validity tracks freshness: hierarchical serves more queries
	// with valid (unexpired) data than source-only refreshing, and faster.
	// (FreshAnswers — freshness among *answered* queries — is not compared
	// here: a scheme whose caches are empty leaves queries pending until
	// they reach the always-fresh source, which inflates that ratio while
	// degrading delay and coverage.)
	if hi.ValidAccessRate <= di.ValidAccessRate {
		t.Errorf("hierarchical valid-access rate %v not above direct %v", hi.ValidAccessRate, di.ValidAccessRate)
	}
	if hi.MeanAccessDelaySec >= di.MeanAccessDelaySec {
		t.Errorf("hierarchical access delay %v not below direct %v", hi.MeanAccessDelaySec, di.MeanAccessDelaySec)
	}
	if hi.Answered == 0 || hi.AnsweredOK < 0.5 {
		t.Errorf("hierarchical answered %v ratio %v; workload broken?", hi.Answered, hi.AnsweredOK)
	}
}

func TestEngineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	a := runScheme(t, NewHierarchical(), 5)
	b := runScheme(t, NewHierarchical(), 5)
	if a.FreshnessRatio != b.FreshnessRatio ||
		a.Transmissions != b.Transmissions ||
		a.Deliveries != b.Deliveries ||
		a.Answered != b.Answered ||
		a.MeanRefreshDelay != b.MeanRefreshDelay {
		t.Fatalf("nondeterministic:\n%+v\n%+v", a, b)
	}
}

func TestEngineSeedMatters(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	a := runScheme(t, NewHierarchical(), 5)
	b := runScheme(t, NewHierarchical(), 6)
	if a.Transmissions == b.Transmissions && a.FreshnessRatio == b.FreshnessRatio && a.Answered == b.Answered {
		t.Fatal("different seeds produced identical results")
	}
}

func TestEngineConfigValidation(t *testing.T) {
	tr := testScenarioTrace(t, 1)
	cat := testScenarioCatalog(t, mobility.Hour)
	base := func() Config {
		return Config{Trace: tr, Catalog: cat, Scheme: NewDirect(), NumCachingNodes: 4}
	}
	const hourly = 1 / mobility.Hour
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil trace", func(c *Config) { c.Trace = nil }},
		{"nil catalog", func(c *Config) { c.Catalog = nil }},
		{"nil scheme", func(c *Config) { c.Scheme = nil }},
		{"zero caching nodes", func(c *Config) { c.NumCachingNodes = 0 }},
		{"too many caching nodes", func(c *Config) { c.NumCachingNodes = 40 }},
		{"bad warmup", func(c *Config) { c.WarmupFraction = 1.5 }},
		{"bad preq", func(c *Config) { c.PReq = 2 }},
		{"negative fanout", func(c *Config) { c.MaxFanout = -1 }},
		{"negative query rate", func(c *Config) { c.Workload = cache.WorkloadConfig{QueryRate: -1, ZipfExponent: 1} }},
		{"queries without zipf exponent", func(c *Config) { c.Workload = cache.WorkloadConfig{QueryRate: hourly} }},
	}
	// NaN fails every comparison, so each float field must reject it and
	// both infinities explicitly. The Zipf exponent is checked only when
	// queries are on.
	floats := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"PReq", func(c *Config, v float64) { c.PReq = v }},
		{"WarmupFraction", func(c *Config, v float64) { c.WarmupFraction = v }},
		{"CentralityWindow", func(c *Config, v float64) { c.CentralityWindow = v }},
		{"DropProb", func(c *Config, v float64) { c.DropProb = v }},
		{"RebuildInterval", func(c *Config, v float64) { c.RebuildInterval = v }},
		{"TimelineTick", func(c *Config, v float64) { c.Recording.TimelineTick = v }},
		{"QueryRate", func(c *Config, v float64) { c.Workload = cache.WorkloadConfig{QueryRate: v, ZipfExponent: 1} }},
		{"ZipfExponent", func(c *Config, v float64) { c.Workload = cache.WorkloadConfig{QueryRate: hourly, ZipfExponent: v} }},
	}
	for _, f := range floats {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			f, v := f, v
			cases = append(cases, struct {
				name   string
				mutate func(*Config)
			}{fmt.Sprintf("%s=%v", f.name, v), func(c *Config) { f.set(c, v) }})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			if _, err := NewEngine(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	// A zero rate turns queries off, whatever the exponent.
	cfg := base()
	cfg.Workload = cache.WorkloadConfig{ZipfExponent: math.NaN()}
	if _, err := NewEngine(cfg); err != nil {
		t.Fatalf("queries off rejected: %v", err)
	}
}

// TestEngineRejectsInvalidTrace: the engine leaves trace validation to
// network.New, and still refuses a broken trace with the trace package's
// sentinel error.
func TestEngineRejectsInvalidTrace(t *testing.T) {
	cat := testScenarioCatalog(t, mobility.Hour)
	cases := []struct {
		name     string
		contacts []trace.Contact
		want     error
	}{
		{"NaN start", []trace.Contact{{A: 0, B: 1, Start: math.NaN(), End: 10}}, trace.ErrBadContact},
		{"self-contact", []trace.Contact{{A: 3, B: 3, Start: 1, End: 10}}, trace.ErrBadContact},
		{"unsorted", []trace.Contact{{A: 0, B: 1, Start: 50, End: 60}, {A: 1, B: 2, Start: 10, End: 20}}, trace.ErrUnsorted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := &trace.Trace{Name: "broken", N: 10, Duration: 100, Contacts: tc.contacts}
			_, err := NewEngine(Config{Trace: tr, Catalog: cat, Scheme: NewDirect(), NumCachingNodes: 4})
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestEngineRejectsSourceOutsideTrace(t *testing.T) {
	tr := testScenarioTrace(t, 1)
	items := []cache.Item{{ID: 0, Source: 999, RefreshInterval: 3600, FreshnessWindow: 3600, Lifetime: 7200, Size: 1}}
	cat, err := cache.NewCatalog(items)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(Config{Trace: tr, Catalog: cat, Scheme: NewDirect(), NumCachingNodes: 4}); err == nil {
		t.Fatal("out-of-trace source accepted")
	}
}

func TestCachingNodesExcludeSources(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	eng, err := NewEngine(Config{
		Trace:           testScenarioTrace(t, 3),
		Catalog:         testScenarioCatalog(t, 4*mobility.Hour),
		Scheme:          NewDirect(),
		NumCachingNodes: 6,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	rt := eng.Runtime()
	if rt == nil {
		t.Fatal("runtime missing after run")
	}
	if len(rt.CachingNodes) != 6 {
		t.Fatalf("caching nodes = %v", rt.CachingNodes)
	}
	for _, cn := range rt.CachingNodes {
		if cn == 0 || cn == 1 || cn == 2 {
			t.Fatalf("item source %d selected as caching node", cn)
		}
	}
}

func TestOnTimeDeliveryTracksRequirement(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	eng, err := NewEngine(Config{
		Trace:           testScenarioTrace(t, 11),
		Catalog:         testScenarioCatalog(t, 6*mobility.Hour),
		Scheme:          NewHierarchical(),
		NumCachingNodes: 6,
		PReq:            0.9,
		Seed:            11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := eng.Collector().FirstDeliveryOnTimeRatio()
	// The analysis guarantees >= PReq for satisfiable plans under the
	// exponential model; allow slack for unsatisfiable destinations and
	// model mismatch (diurnal gaps), but it must be in the right regime.
	if got < 0.6 {
		t.Fatalf("first-delivery on-time ratio %v far below requirement 0.9 (stats: %v)", got, res.SchemeStats)
	}
	if res.SchemeStats["plansTotal"] == 0 {
		t.Fatal("replication planner never ran")
	}
}

func TestSchemeByName(t *testing.T) {
	for _, spec := range Schemes() {
		s, err := SchemeByName(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != spec.Name {
			t.Fatalf("scheme %q reports name %q", spec.Name, s.Name())
		}
	}
	if _, err := SchemeByName("bogus"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// initFailing is a scheme whose Init fails, so its run fails at the epoch.
type initFailing struct{ Scheme }

var errInitFailed = errors.New("init failed")

func (initFailing) Init(*Runtime) error { return errInitFailed }

// TestRunFailingAtEpochJoinsCompile: a run that fails at the epoch still
// joins the plan compile started beside its warm-up. Run returns the
// scheme's error, no goroutine outlives it, and the Reuse it held then
// gives a fresh run exactly the result of a run without one.
func TestRunFailingAtEpochJoinsCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	tr := testScenarioTrace(t, 2)
	cat := testScenarioCatalog(t, 4*mobility.Hour)
	run := func(s Scheme, reuse *Reuse) (metrics.Result, error) {
		t.Helper()
		eng, err := NewEngine(Config{
			Trace:           tr,
			Catalog:         cat,
			Scheme:          s,
			NumCachingNodes: 6,
			Workload:        cache.WorkloadConfig{QueryRate: 1 / mobility.Hour, ZipfExponent: 1},
			Seed:            2,
			Reuse:           reuse,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng.Run()
	}
	reuse := NewReuse()
	before := runtime.NumGoroutine()
	if _, err := run(initFailing{NewHierarchical()}, reuse); !errors.Is(err, errInitFailed) {
		t.Fatalf("Run returned %v, want the scheme's init error", err)
	}
	// A goroutine may still be returning from its deferred Done.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the failed run left %d goroutines running, want %d", runtime.NumGoroutine(), before)
		}
	}
	got, err := run(NewHierarchical(), reuse)
	if err != nil {
		t.Fatal(err)
	}
	want, err := run(NewHierarchical(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Queries == 0 {
		t.Fatal("the run issued no queries")
	}
	got.WallClockSeconds, want.WallClockSeconds = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the Reuse of a failed run moved the next result:\n%+v\n%+v", got, want)
	}
}

// TestPlanCompileRaisesPanicAtJoin: a panic in the compile goroutine is
// raised again by join on the joining goroutine, where a sweep's cell
// recovery can catch it, and a second join returns at once.
func TestPlanCompileRaisesPanicAtJoin(t *testing.T) {
	var c planCompile
	c.start(func() error { panic("compile failed") })
	func() {
		defer func() {
			if r := recover(); r != "compile failed" {
				t.Fatalf("join raised %v, want the compile's panic", r)
			}
		}()
		_ = c.join()
		t.Fatal("join returned instead of panicking")
	}()
	if err := c.join(); err != nil {
		t.Fatalf("second join: %v", err)
	}

	var failing planCompile
	failing.start(func() error { return errInitFailed })
	if err := failing.join(); !errors.Is(err, errInitFailed) {
		t.Fatalf("join returned %v, want the compile's error", err)
	}
}

// generationLog forwards to a scheme and logs each generation it sees.
type generationLog struct {
	Scheme
	log []planAction
}

func (g *generationLog) OnGenerate(it cache.Item, version int, now float64) {
	g.log = append(g.log, planAction{time: now, op: opGenerate, item: int32(it.ID), ver: int32(version)})
	g.Scheme.OnGenerate(it, version, now)
}

// TestPlanDispatchOrder: the measurement phase dispatches the plan's
// actions in the order of a stable sort by time of its runs as compiled:
// each item's versions, the freshness samples, the timeline ticks, then
// each requester's queries. The scenario puts generations on sample and
// tick instants, and two items' generations on the same instants, so the
// ties are many. The query dispatched k-th has ID k and sits at slot k of
// the engine's query log.
func TestPlanDispatchOrder(t *testing.T) {
	tr := testScenarioTrace(t, 4)
	// The epoch is 311,040 s and the samples 3,024 s apart, both exact;
	// every fifth sample falls on a generation of items 0 and 1, and
	// every fifth from the first on one of item 2.
	const interval = 3024.0
	items := make([]cache.Item, 3)
	for i := range items {
		items[i] = cache.Item{ID: cache.ItemID(i), Source: trace.NodeID(i), RefreshInterval: 5 * interval,
			FreshnessWindow: 5 * interval, Lifetime: 10 * interval, Size: 1}
	}
	items[2].Phase = interval
	cat, err := cache.NewCatalog(items)
	if err != nil {
		t.Fatal(err)
	}
	tl := obs.NewTimeline("order", 0)
	gens := &generationLog{Scheme: NewHierarchical()}
	cfg := Config{
		Trace:           tr,
		Catalog:         cat,
		Scheme:          gens,
		NumCachingNodes: 6,
		Workload:        cache.WorkloadConfig{QueryRate: 1 / mobility.Hour, ZipfExponent: 1},
		Recording:       obs.Recording{Timeline: tl},
		Seed:            4,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epoch, horizon := eng.epoch, eng.horizon
	if (horizon-epoch)/240 != interval {
		t.Fatalf("sample interval %v, want %v", (horizon-epoch)/240, interval)
	}

	// After every event from the epoch on, log the plan action it was, if
	// any: each kind leaves its own trace. (Before the epoch the query book
	// belongs to the plan compile.)
	var got []planAction
	nGen, nSample, nPoint, nQuery := 0, 0, 0, 0
	eng.sim.SetProcessedHook(func(uint64) {
		if eng.rt == nil {
			return
		}
		now := eng.sim.Now()
		var acts []planAction
		if len(gens.log) > nGen {
			acts = append(acts, gens.log[nGen:]...)
			nGen = len(gens.log)
		}
		if n := len(eng.collector.Samples()); n > nSample {
			acts = append(acts, planAction{time: now, op: opSample})
			nSample = n
		}
		if n := tl.Len(); n > nPoint {
			acts = append(acts, planAction{time: now, op: opTimeline})
			nPoint = n
		}
		if all := eng.book.All(); len(all) > nQuery {
			q := all[len(all)-1]
			acts = append(acts, planAction{time: q.IssuedAt, op: opQuery, item: int32(q.Item), node: int32(q.Requester)})
			nQuery = len(all)
		}
		if len(acts) > 1 {
			t.Fatalf("one event at %v dispatched %d actions: %+v", now, len(acts), acts)
		}
		got = append(got, acts...)
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	var want []planAction
	for _, it := range cat.View() {
		for v := 0; cache.VersionTime(it, epoch, v) < horizon; v++ {
			want = append(want, planAction{time: cache.VersionTime(it, epoch, v), op: opGenerate, item: int32(it.ID), ver: int32(v)})
		}
	}
	for _, op := range []uint8{opSample, opTimeline} {
		for at := epoch + interval; at < horizon; at += interval {
			want = append(want, planAction{time: at, op: op})
		}
	}
	qs, err := cache.GenerateQueries(cfg.Workload, cat, tr.N, epoch, horizon, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		want = append(want, planAction{time: q.IssuedAt, op: opQuery, item: int32(q.Item), node: int32(q.Requester)})
	}
	slices.SortStableFunc(want, func(a, b planAction) int { return cmp.Compare(a.time, b.time) })

	ties := 0
	for i := 1; i < len(want); i++ {
		if want[i].time == want[i-1].time && want[i].op != want[i-1].op {
			ties++
		}
	}
	if ties < 300 {
		t.Fatalf("only %d ties between actions of different kinds", ties)
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("action %d dispatched as %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d actions dispatched, want %d", len(got), len(want))
	}
	all := eng.book.All()
	if len(all) != len(qs) || len(eng.queries) != len(qs) {
		t.Fatalf("%d queries issued into a log of %d, want %d", len(all), len(eng.queries), len(qs))
	}
	for k, q := range all {
		if q.ID != k || q != &eng.queries[k] {
			t.Fatalf("query %d dispatched with ID %d, not at slot %d of the log", k, q.ID, k)
		}
	}
}
