package core

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"freshcache/internal/cache"
	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
	"freshcache/internal/network"
	"freshcache/internal/obs"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// End-to-end protocol invariants checked over randomized scenarios: for
// ANY random trace, scheme, and failure configuration, the simulation
// must uphold causality and accounting invariants. This is the strongest
// regression net the engine has — any protocol change that teleports
// data, double-serves queries, or corrupts accounting fails here.

type invariantScenario struct {
	seed    int64
	tr      *trace.Trace
	catalog *cache.Catalog
	cfg     Config
}

// randomScenario builds a small random scenario from the seed. The scheme
// is drawn last, so the length of the scheme list never shifts the
// scenario's other draws.
func randomScenario(seed int64) (*invariantScenario, error) {
	rng := stats.NewRNG(seed)
	n := 8 + rng.Intn(12)
	duration := 5000.0 + rng.Float64()*20000

	tr := &trace.Trace{Name: "inv", N: n, Duration: duration}
	contacts := 100 + rng.Intn(400)
	for i := 0; i < contacts; i++ {
		a := trace.NodeID(rng.Intn(n))
		b := trace.NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		start := rng.Float64() * (duration - 100)
		tr.Contacts = append(tr.Contacts, trace.Contact{A: a, B: b, Start: start, End: start + 5 + rng.Float64()*60})
	}
	tr.Normalize()
	if err := tr.Validate(); err != nil {
		return nil, err
	}

	numItems := 1 + rng.Intn(3)
	items := make([]cache.Item, numItems)
	for i := range items {
		r := 500 + rng.Float64()*2000
		items[i] = cache.Item{
			ID:              cache.ItemID(i),
			Source:          trace.NodeID(i),
			Phase:           rng.Float64() * r * 0.9,
			RefreshInterval: r,
			FreshnessWindow: r * (0.5 + rng.Float64()),
			Lifetime:        r * (1 + rng.Float64()*2),
			Size:            1,
		}
	}
	catalog, err := cache.NewCatalog(items)
	if err != nil {
		return nil, err
	}

	cfg := Config{
		Trace:           tr,
		Catalog:         catalog,
		NumCachingNodes: 2 + rng.Intn(3),
		Seed:            seed,
		Workload:        cache.WorkloadConfig{QueryRate: 1.0 / 2000, ZipfExponent: 1.1},
	}
	// Random failure injection.
	switch rng.Intn(4) {
	case 1:
		cfg.DropProb = rng.Float64() * 0.5
	case 2:
		cfg.Churn = network.ChurnConfig{MeanUp: 1000 + rng.Float64()*5000, MeanDown: 500 + rng.Float64()*2000}
	case 3:
		// Once a per-contact bandwidth budget; the draw stays so that
		// every other field of a seed's scenario is drawn as before.
		_ = rng.Float64()
	}
	if rng.Intn(3) == 0 {
		cfg.QueryRelays = 1 + rng.Intn(3)
	}
	if rng.Intn(3) == 0 {
		cfg.Knowledge = KnowledgeDistributed
	}
	if rng.Intn(4) == 0 {
		cfg.RebuildInterval = duration / 4
	}
	schemes := Schemes()
	cfg.Scheme = schemes[rng.Intn(len(schemes))].New()
	return &invariantScenario{seed: seed, tr: tr, catalog: catalog, cfg: cfg}, nil
}

// foremostArrival returns, for every node, the earliest time a version
// generated at src at time t0 can reach it over the trace's contacts: the
// foremost journey of the temporal-graph literature (Bui Xuan, Ferreira &
// Jarry, IJFCS 2003), with transfer at contact start. Contacts that share
// a start time are relaxed to a fixed point, so the bound holds under any
// order the engine dispatches them in. Unreachable nodes read +Inf. The
// trace must be normalized (contacts sorted by start).
func foremostArrival(tr *trace.Trace, src trace.NodeID, t0 float64) []float64 {
	at := make([]float64, tr.N)
	for i := range at {
		at[i] = math.Inf(1)
	}
	at[src] = t0
	cs := tr.Contacts
	for i := sort.Search(len(cs), func(i int) bool { return cs[i].Start >= t0 }); i < len(cs); {
		j := i + 1
		for j < len(cs) && cs[j].Start == cs[i].Start {
			j++
		}
		for changed := true; changed; {
			changed = false
			for _, c := range cs[i:j] {
				switch {
				case at[c.A] <= c.Start && at[c.B] > c.Start:
					at[c.B], changed = c.Start, true
				case at[c.B] <= c.Start && at[c.A] > c.Start:
					at[c.A], changed = c.Start, true
				}
			}
		}
		i = j
	}
	return at
}

func checkInvariants(t *testing.T, sc *invariantScenario) {
	t.Helper()
	// Every other scenario records the run three more ways (event trace,
	// metric registry, lineage spans) so the views can be reconciled
	// below; the rest stay obs-off and keep the nil path covered.
	cfg := sc.cfg
	observed := sc.seed%2 == 0
	if observed {
		cfg.Recording = obs.Recording{
			Trace:   obs.NewRunTrace("inv", 1, 1<<14),
			Metrics: obs.NewRegistry(),
			Lineage: obs.NewLineage("inv", cfg.Scheme.Name(), 0),
		}
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", sc.seed, err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("seed %d (%s): %v", sc.seed, sc.cfg.Scheme.Name(), err)
	}

	// Ratio-type metrics are probabilities.
	for name, v := range map[string]float64{
		"freshness":      res.FreshnessRatio,
		"answeredOK":     res.AnsweredOK,
		"freshAnswers":   res.FreshAnswers,
		"validAnswers":   res.ValidAnswers,
		"freshAccess":    res.FreshAccessRate,
		"validAccess":    res.ValidAccessRate,
		"onTime":         res.OnTimeRatio,
		"sourceTxShare":  res.SourceTxShare,
		"maxNodeTxShare": res.MaxNodeTxShare,
		"loadGini":       res.LoadGini,
	} {
		if v < -1e-9 || v > 1+1e-9 || math.IsNaN(v) {
			t.Fatalf("seed %d (%s): %s = %v outside [0,1]", sc.seed, sc.cfg.Scheme.Name(), name, v)
		}
	}

	rt := eng.Runtime()
	if rt == nil {
		t.Fatalf("seed %d: no runtime", sc.seed)
	}

	// Causality of deliveries: generated in the measurement phase, never
	// delivered before generation nor before the trace's foremost journey
	// from the source could carry the version, versions consistent with
	// the item schedule, and OnTime flags truthful.
	bounds := map[copyKey][]float64{}
	for _, d := range eng.Collector().Deliveries() {
		it, err := sc.catalog.Item(d.Item)
		if err != nil {
			t.Fatalf("seed %d: delivery for unknown item %d", sc.seed, d.Item)
		}
		if d.DeliveredAt < d.GeneratedAt {
			t.Fatalf("seed %d (%s): delivery before generation: %+v", sc.seed, sc.cfg.Scheme.Name(), d)
		}
		if want := cache.VersionTime(it, rt.Epoch, d.Version); math.Abs(want-d.GeneratedAt) > 1e-6 {
			t.Fatalf("seed %d: version %d generated at %v, schedule says %v", sc.seed, d.Version, d.GeneratedAt, want)
		}
		key := copyKey{item: d.Item, version: d.Version}
		bound, ok := bounds[key]
		if !ok {
			bound = foremostArrival(sc.tr, it.Source, d.GeneratedAt)
			bounds[key] = bound
		}
		if d.DeliveredAt < bound[d.Node] {
			t.Fatalf("seed %d (%s): delivery before the foremost journey could arrive (%v): %+v",
				sc.seed, sc.cfg.Scheme.Name(), bound[d.Node], d)
		}
		if got := d.DeliveredAt-d.GeneratedAt <= it.FreshnessWindow; got != d.OnTime {
			t.Fatalf("seed %d: OnTime flag wrong: %+v (window %v)", sc.seed, d, it.FreshnessWindow)
		}
		if !rt.IsCachingNode(d.Node) {
			t.Fatalf("seed %d: delivery to non-caching node %d", sc.seed, d.Node)
		}
	}

	// Query log sanity: served queries have causal timestamps, valid
	// answers were within lifetime at service, and no served copy predates
	// the epoch schedule.
	for _, q := range eng.book.All() {
		if !q.Served {
			continue
		}
		if q.ServedAt < q.IssuedAt {
			t.Fatalf("seed %d: query served before issue: %+v", sc.seed, q)
		}
		it, err := sc.catalog.Item(q.Item)
		if err != nil {
			t.Fatalf("seed %d: query for unknown item", sc.seed)
		}
		if q.Valid && q.ServedAt-q.ServedGeneratedAt > it.Lifetime+1e-9 {
			t.Fatalf("seed %d: expired copy marked valid: %+v", sc.seed, q)
		}
		if q.ServedVersion < 0 {
			t.Fatalf("seed %d: negative served version: %+v", sc.seed, q)
		}
	}

	// Accounting: answered <= queries, deliveries consistent, overhead
	// non-negative.
	if res.Answered > res.Queries {
		t.Fatalf("seed %d: answered %d > queries %d", sc.seed, res.Answered, res.Queries)
	}
	if res.Transmissions < 0 || res.TxPerVersion < 0 {
		t.Fatalf("seed %d: negative overhead", sc.seed)
	}
	if observed {
		checkRecordingsAgree(t, sc.seed, res, cfg.Recording)
	}
}

// checkRecordingsAgree requires the run's recordings to count the same
// facts alike: the Result, the event trace, the registry counters and the
// lineage spans. Nothing may have been dropped, or the counts are partial.
func checkRecordingsAgree(t *testing.T, seed int64, res metrics.Result, rec obs.Recording) {
	t.Helper()
	tr, reg, lin := rec.Trace, rec.Metrics, rec.Lineage
	if tr.Dropped() != 0 || lin.Dropped() != 0 {
		t.Fatalf("seed %d (%s): recordings dropped %d events, %d spans; size them up",
			seed, res.Scheme, tr.Dropped(), lin.Dropped())
	}
	events := map[obs.Kind]int{}
	for _, ev := range tr.Events() {
		events[ev.Kind]++
	}
	spans := map[obs.SpanKind]int{}
	for _, sp := range lin.Spans() {
		spans[sp.Kind]++
	}
	counters := reg.Snapshot().Counters
	counter := func(name string) int { return int(counters[name]) }
	for _, fact := range []struct {
		name   string
		counts []int
	}{
		{"deliveries (result, refresh_delivered, engine/deliveries, delivery spans)",
			[]int{res.Deliveries, events[obs.KindRefreshDelivered], counter("engine/deliveries"), spans[obs.SpanDelivery]}},
		{"contacts (engine/contacts, contact_begin, contact_end)",
			[]int{counter("engine/contacts"), events[obs.KindContactBegin], events[obs.KindContactEnd]}},
		{"generations (result, generate events, generate spans)",
			[]int{res.VersionsGenerated, events[obs.KindGenerate], spans[obs.SpanGenerate]}},
		{"handoffs (relay_handoff, handoff spans)",
			[]int{events[obs.KindRelayHandoff], spans[obs.SpanHandoff]}},
		{"duties (refresh_scheduled, duty spans)",
			[]int{events[obs.KindRefreshScheduled], spans[obs.SpanDuty]}},
		{"reassignments (duty_reassigned, reassign spans)",
			[]int{events[obs.KindDutyReassigned], spans[obs.SpanReassign]}},
		{"queries (result, query_issued, cache_hit+cache_miss)",
			[]int{res.Queries, events[obs.KindQueryIssued], events[obs.KindCacheHit] + events[obs.KindCacheMiss]}},
		{"dropped queries (result, engine/query_drops)",
			[]int{res.QueriesDropped, counter("engine/query_drops")}},
	} {
		for _, c := range fact.counts[1:] {
			if c != fact.counts[0] {
				t.Fatalf("seed %d (%s): %s disagree: %v", seed, res.Scheme, fact.name, fact.counts)
			}
		}
	}
}

func TestEngineInvariantsRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized end-to-end simulations")
	}
	f := func(seed int64) bool {
		sc, err := randomScenario(seed)
		if err != nil {
			// Degenerate random trace (e.g. all self-contacts skipped to
			// empty); not an engine failure.
			return true
		}
		checkInvariants(t, sc)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineInvariantsFixedSeeds(t *testing.T) {
	// Every scheme on the same ten scenarios, always run (not skipped in
	// -short) for fast regression signal.
	for seed := int64(1); seed <= 10; seed++ {
		sc, err := randomScenario(seed * 997)
		if err != nil {
			continue
		}
		for _, spec := range Schemes() {
			sc.cfg.Scheme = spec.New()
			checkInvariants(t, sc)
		}
	}
}

// TestEpidemicMeetsForemostJourney: epidemic pushes every newer version
// on every contact, so with no loss or churn it carries each version
// exactly along the foremost journey. Every (caching
// node, item, version) whose bound falls before the horizon is delivered
// at the bound, or a newer version has arrived there by then. Together
// with checkInvariants' lower bound this makes epidemic the checked
// freshness ceiling of a trace.
func TestEpidemicMeetsForemostJourney(t *testing.T) {
	traces := []*trace.Trace{metamorphicTrace(t, 1), metamorphicTrace(t, 2)}
	for _, name := range []string{"reality-like", "infocom-like"} {
		g, err := mobility.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := g.Generate(42)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	for i, tr := range traces {
		cfg := metamorphicConfig(t, tr, "epidemic", 1, 0)
		_, eng := runMetamorphic(t, cfg)
		rt := eng.Runtime()
		type nodeItem struct {
			node trace.NodeID
			item cache.ItemID
		}
		got := map[nodeItem][]metrics.Delivery{}
		for _, d := range eng.Collector().Deliveries() {
			k := nodeItem{d.Node, d.Item}
			got[k] = append(got[k], d)
		}
		checked := 0
		for _, it := range cfg.Catalog.View() {
			for v := 0; ; v++ {
				genAt := cache.VersionTime(it, rt.Epoch, v)
				if genAt >= rt.Horizon {
					break
				}
				bound := foremostArrival(tr, it.Source, genAt)
				for _, cn := range rt.CachingNodes {
					if bound[cn] >= rt.Horizon {
						continue
					}
					checked++
					met := false
					for _, d := range got[nodeItem{cn, it.ID}] {
						if (d.Version == v && d.DeliveredAt == bound[cn]) || (d.Version > v && d.DeliveredAt <= bound[cn]) {
							met = true
							break
						}
					}
					if !met {
						t.Errorf("trace %d (%s): item %d version %d missed node %d's foremost journey at %v",
							i, tr.Name, it.ID, v, cn, bound[cn])
					}
				}
			}
		}
		if checked == 0 {
			t.Fatalf("trace %d (%s): no version reached a caching node", i, tr.Name)
		}
		t.Logf("trace %d (%s): %d (caching node, item, version) bounds met", i, tr.Name, checked)
	}
}

// The metamorphic tests run three schemes on 40-node, 20-day Community
// traces (seeds 1 and 2) with K = 8 caching nodes and three items whose
// sources are nodes 0, 1 and 2, with queries off and on.

var metamorphicSchemes = []string{"direct", "hierarchical", "epidemic"}

// metamorphicQueryRates are the per-node query rates at scale 1: off, and
// one query per node every 4 h.
var metamorphicQueryRates = []float64{0, 1 / (4 * mobility.Hour)}

// metamorphicTrace generates one of the Community traces.
func metamorphicTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	g := &mobility.Community{
		TraceName: "scale", N: 40, Duration: 20 * mobility.Day, Communities: 4,
		IntraRate: 6.0 / mobility.Day, InterRate: 0.5 / mobility.Day, RateShape: 0.8,
		InterPairFraction: 0.5, HubFraction: 0.1, HubBoost: 3, MeanContactDur: 120,
	}
	tr, err := g.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// metamorphicCatalog returns the three items with every time scaled.
func metamorphicCatalog(t *testing.T, scale float64) *cache.Catalog {
	t.Helper()
	const r = 6 * mobility.Hour
	items := make([]cache.Item, 3)
	for i := range items {
		items[i] = cache.Item{
			ID: cache.ItemID(i), Source: trace.NodeID(i), Size: 1,
			RefreshInterval: r * scale,
			Phase:           float64(i) * r / 3 * scale,
			FreshnessWindow: r * 0.75 * scale,
			Lifetime:        r * 2 * scale,
		}
	}
	cat, err := cache.NewCatalog(items)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// metamorphicConfig is one run's configuration, its absolute times and
// query rate scaled like the catalog's.
func metamorphicConfig(t *testing.T, tr *trace.Trace, scheme string, scale, queryRate float64) Config {
	t.Helper()
	s, err := SchemeByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Trace: tr, Catalog: metamorphicCatalog(t, scale), Scheme: s, NumCachingNodes: 8, Seed: 7,
		CentralityWindow: 6 * mobility.Hour * scale}
	if queryRate > 0 {
		cfg.Workload = cache.WorkloadConfig{QueryRate: queryRate / scale, ZipfExponent: 1.1}
	}
	return cfg
}

// runMetamorphic runs one configuration to its result.
func runMetamorphic(t *testing.T, cfg Config) (metrics.Result, *Engine) {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, eng
}

// TestTimeScalingMetamorphic: stretching every time by c = 2 changes
// nothing the protocols can observe. Contact times and the trace
// duration, each item's refresh interval, phase, freshness window and
// lifetime, and CentralityWindow (the one absolute time among Config's
// defaults) all double, and the per-node query rate halves. Rates then
// halve and every rate × time product is unchanged; a power of two keeps
// each float product exact, so the results must be equal, not close.
func TestTimeScalingMetamorphic(t *testing.T) {
	const c = 2.0
	scaleTrace := func(tr *trace.Trace) *trace.Trace {
		out := &trace.Trace{Name: tr.Name, N: tr.N, Duration: tr.Duration * c,
			Contacts: make([]trace.Contact, len(tr.Contacts))}
		for i, ct := range tr.Contacts {
			ct.Start, ct.End = ct.Start*c, ct.End*c
			out.Contacts[i] = ct
		}
		return out
	}
	for _, seed := range []int64{1, 2} {
		tr := metamorphicTrace(t, seed)
		scaled := scaleTrace(tr)
		for _, scheme := range metamorphicSchemes {
			for _, queryRate := range metamorphicQueryRates {
				a, _ := runMetamorphic(t, metamorphicConfig(t, tr, scheme, 1, queryRate))
				b, _ := runMetamorphic(t, metamorphicConfig(t, scaled, scheme, c, queryRate))
				if a.Deliveries == 0 || (queryRate > 0 && a.Queries == 0) {
					t.Fatalf("seed %d %s: degenerate run %+v", seed, scheme, a)
				}
				if a.FreshnessRatio != b.FreshnessRatio || a.Deliveries != b.Deliveries ||
					a.Transmissions != b.Transmissions || a.Queries != b.Queries ||
					a.Answered != b.Answered || !reflect.DeepEqual(a.SchemeStats, b.SchemeStats) {
					t.Errorf("seed %d %s queryRate %v: scaling time by %v moved the result\n"+
						"freshness %v → %v, deliveries %d → %d, transmissions %d → %d, "+
						"queries %d → %d, answered %d → %d\nscheme stats %v → %v",
						seed, scheme, queryRate, c, a.FreshnessRatio, b.FreshnessRatio,
						a.Deliveries, b.Deliveries, a.Transmissions, b.Transmissions,
						a.Queries, b.Queries, a.Answered, b.Answered, a.SchemeStats, b.SchemeStats)
				}
			}
		}
	}
}

// TestIsolatedNodeMetamorphic: a node that meets no one changes nothing.
// Node 40 is appended to each trace with no contacts. It must not be
// picked as a caching node, which could never be refreshed. With queries
// off the result is equal, wall time aside, except LoadGini, which is
// taken over every node's load: node 40's is 0, so it becomes the Gini of
// the same loads with one zero more, (n·G + 1)/(n + 1). With queries on,
// node 40 issues queries too: they are drawn after every other node's, so
// the others' queries are unchanged, and none of node 40's can be
// answered, so Answered stays put and Queries rises by exactly node 40's
// count.
func TestIsolatedNodeMetamorphic(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		tr := metamorphicTrace(t, seed)
		isolated := trace.NodeID(tr.N)
		wider := &trace.Trace{Name: tr.Name, N: tr.N + 1, Duration: tr.Duration, Contacts: tr.Contacts}
		for _, scheme := range metamorphicSchemes {
			for _, queryRate := range metamorphicQueryRates {
				a, _ := runMetamorphic(t, metamorphicConfig(t, tr, scheme, 1, queryRate))
				cfg := metamorphicConfig(t, wider, scheme, 1, queryRate)
				b, eng := runMetamorphic(t, cfg)
				if a.Deliveries == 0 || (queryRate > 0 && a.Queries == 0) {
					t.Fatalf("seed %d %s: degenerate run %+v", seed, scheme, a)
				}
				if eng.Runtime().IsCachingNode(isolated) {
					t.Errorf("seed %d %s: isolated node %d picked as a caching node", seed, scheme, isolated)
				}
				if queryRate == 0 {
					n := float64(tr.N)
					if want := (n*a.LoadGini + 1) / (n + 1); math.Abs(b.LoadGini-want) > 1e-12 {
						t.Errorf("seed %d %s: LoadGini %v → %v, want %v", seed, scheme, a.LoadGini, b.LoadGini, want)
					}
					a.WallClockSeconds, b.WallClockSeconds = 0, 0
					a.LoadGini, b.LoadGini = 0, 0
					if !reflect.DeepEqual(a, b) {
						t.Errorf("seed %d %s: isolated node moved the result\n%+v\n%+v", seed, scheme, a, b)
					}
					continue
				}
				qs, err := cache.GenerateQueries(cfg.Workload, cfg.Catalog, wider.N, eng.Runtime().Epoch, wider.Duration, cfg.Seed)
				if err != nil {
					t.Fatal(err)
				}
				own := 0
				for i := range qs {
					if qs[i].Requester == isolated {
						own++
					}
				}
				if own == 0 || b.Answered != a.Answered || b.Queries != a.Queries+own {
					t.Errorf("seed %d %s: isolated node moved the query outcomes: "+
						"answered %d → %d, queries %d → %d (node %d issued %d)",
						seed, scheme, a.Answered, b.Answered, a.Queries, b.Queries, isolated, own)
				}
			}
		}
	}
}
