package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

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
	// TestEpidemicMeetsForemostJourney). With no loss, churn, message time
	// or eviction, epidemic then holds a version at least as new at every
	// cache at every instant, so no scheme's freshness may exceed its own.
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
		{"negative sample interval", func(c *Config) { c.SampleInterval = -1 }},
	}
	// NaN fails every comparison, so each float field must reject it and
	// both infinities explicitly.
	floats := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"PReq", func(c *Config, v float64) { c.PReq = v }},
		{"WarmupFraction", func(c *Config, v float64) { c.WarmupFraction = v }},
		{"SampleInterval", func(c *Config, v float64) { c.SampleInterval = v }},
		{"MsgTime", func(c *Config, v float64) { c.MsgTime = v }},
		{"CentralityWindow", func(c *Config, v float64) { c.CentralityWindow = v }},
		{"DropProb", func(c *Config, v float64) { c.DropProb = v }},
		{"RebuildInterval", func(c *Config, v float64) { c.RebuildInterval = v }},
		{"TimelineTick", func(c *Config, v float64) { c.Recording.TimelineTick = v }},
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

func TestMsgBudgetReducesThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	run := func(msgTime float64) metrics.Result {
		eng, err := NewEngine(Config{
			Trace:           testScenarioTrace(t, 21),
			Catalog:         testScenarioCatalog(t, 4*mobility.Hour),
			Scheme:          NewEpidemic(),
			NumCachingNodes: 6,
			MsgTime:         msgTime,
			Seed:            21,
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
	unlimited := run(0)
	// Absurdly slow messages: one per contact at best.
	tight := run(10000)
	if tight.Transmissions >= unlimited.Transmissions {
		t.Fatalf("budget did not bite: %d vs %d", tight.Transmissions, unlimited.Transmissions)
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
