package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"freshcache/internal/cache"
	"freshcache/internal/centrality"
	"freshcache/internal/eventsim"
	"freshcache/internal/metrics"
	"freshcache/internal/network"
	"freshcache/internal/obs"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// Scheme is a cache-freshness maintenance protocol under evaluation.
// Engine calls Init once at the end of warmup (when contact rates and the
// caching-node set exist), OnGenerate whenever a source produces a new
// version, and OnContact for every contact of the measurement phase, except
// that a scheme which declares Runtime.ActsOnlyAtServers in Init, in a run
// without query delegation, gets only the contacts with a caching node or
// an item source at one end.
type Scheme interface {
	Name() string
	Init(rt *Runtime) error
	OnGenerate(it cache.Item, version int, now float64)
	OnContact(c *network.Contact)
}

// StatsReporter is optionally implemented by schemes that expose internal
// statistics (e.g. the replication planner's analytical probabilities).
type StatsReporter interface {
	SchemeStats() map[string]float64
}

// Rebuilder is optionally implemented by schemes that can adapt their
// structures (e.g. the refresh hierarchy) to updated contact-rate
// estimates mid-run; the engine invokes it every Config.RebuildInterval.
type Rebuilder interface {
	Rebuild(rt *Runtime) error
}

// Runtime is the environment the engine hands to a scheme at Init: the
// converged contact-rate knowledge, the caching-node set, and the cache
// delivery path (which is also where delivery metrics are recorded).
type Runtime struct {
	N            int
	Catalog      *cache.Catalog
	Rates        centrality.RateStore
	CachingNodes []trace.NodeID
	Epoch        float64 // measurement-phase start
	Horizon      float64 // simulation end
	PReq         float64 // required refresh probability
	MaxFanout    int     // hierarchy fan-out bound
	MaxRelays    int     // replication relay bound per destination
	// Seed lets schemes derive their own deterministic randomness.
	Seed int64
	// Rec is the run's recording. Schemes record each refresh fact through
	// its fact methods unconditionally: collectors that are off skip it,
	// and span IDs are 0 without lineage.
	Rec *obs.Recording

	eng *Engine
	// isCaching is indexed by NodeID — the per-contact membership test is
	// a slice load, not a map probe.
	isCaching []bool
	// allNodes is the cached 0..N-1 ID slice returned by AllNodes.
	allNodes []trace.NodeID
	// serversOnly is set by ActsOnlyAtServers.
	serversOnly bool
}

// ActsOnlyAtServers declares, during Init, that the scheme's OnContact
// does nothing unless an endpoint is a caching node or an item source: all
// of its state lives at those nodes. In a run without query delegation the
// engine then skips OnContact, and query resolution, on every other
// contact; the contact is still dispatched, counted and recorded. The
// engine reads the declaration when Init returns; later calls do nothing.
func (rt *Runtime) ActsOnlyAtServers() { rt.serversOnly = true }

// IsCachingNode reports whether the node is in the caching set.
func (rt *Runtime) IsCachingNode(n trace.NodeID) bool {
	return n >= 0 && int(n) < len(rt.isCaching) && rt.isCaching[n]
}

// RatesFor returns the contact-rate knowledge available to the given node
// right now. Under KnowledgeOracle (default) this is the converged
// warmup-phase estimate shared by everyone; under KnowledgeDistributed it
// is the node's own local view, built from its contacts and transitive
// gossip — stale and partial exactly as a real deployment's would be.
func (rt *Runtime) RatesFor(node trace.NodeID) centrality.RateView {
	if rt.eng.distEst == nil {
		return rt.Rates
	}
	v, err := rt.eng.distEst.View(node, rt.eng.sim.Now())
	if err != nil {
		// Before any observation time has elapsed there is nothing to
		// know; an empty view is the honest answer.
		return centrality.EmptyView(rt.N)
	}
	return v
}

// CachedVersion returns the version of the item cached at the node, or
// (-1, false) when the node caches no copy.
func (rt *Runtime) CachedVersion(node trace.NodeID, item cache.ItemID) (int, bool) {
	c, ok := rt.CachedCopy(node, item)
	if !ok {
		return -1, false
	}
	return c.Version, true
}

// CachedCopy returns the copy of the item cached at the node, if any.
func (rt *Runtime) CachedCopy(node trace.NodeID, item cache.ItemID) (cache.Copy, bool) {
	st := rt.eng.store(node)
	if st == nil {
		return cache.Copy{}, false
	}
	return st.Peek(item)
}

// DeliverToCache stores the copy from node `from` at the caching node,
// recording the delivery metric and the delivery fact, under the parent
// span, when the store accepts it (i.e. the copy is newer than what the
// node had). It returns the delivery span (0 without lineage) and whether
// the store accepted the copy: false for non-caching nodes and for stale
// copies. Transmission accounting is the caller's job (Contact.Send) —
// delivery and transfer cost are deliberately separate so the Oracle
// bound can deliver for free.
func (rt *Runtime) DeliverToCache(from, node trace.NodeID, c cache.Copy, now float64, parent obs.SpanID) (obs.SpanID, bool) {
	return rt.eng.deliverToCache(from, node, c, now, parent)
}

// CopySpan returns the delivery span under which the caching node's
// current copy of the item arrived (0 without lineage, for non-caching
// nodes, or when no copy arrived yet).
func (rt *Runtime) CopySpan(node trace.NodeID, item cache.ItemID) obs.SpanID {
	if rt.eng.copySpan == nil || rt.eng.copySpan[node] == nil {
		return 0
	}
	return rt.eng.copySpan[node][item]
}

// AllNodes returns the node IDs 0..N-1; the candidate set for relay
// selection. The slice is built once and shared — it is called per
// destination per generation inside replication planning, so callers
// must treat it as immutable.
func (rt *Runtime) AllNodes() []trace.NodeID {
	if rt.allNodes == nil {
		rt.allNodes = make([]trace.NodeID, rt.N)
		for i := range rt.allNodes {
			rt.allNodes[i] = trace.NodeID(i)
		}
	}
	return rt.allNodes
}

// Items returns the scenario's items in ID order as a shared immutable
// slice — the allocation-free counterpart of Catalog.Items for the
// per-contact dispatch path.
func (rt *Runtime) Items() []cache.Item { return rt.Catalog.View() }

// KnowledgeMode selects how much contact-rate knowledge protocols get.
type KnowledgeMode int

const (
	// KnowledgeOracle gives every node the converged warmup-phase rate
	// estimate — the standard assumption of this paper family ("nodes
	// exchange contact histories and converge").
	KnowledgeOracle KnowledgeMode = iota
	// KnowledgeDistributed gives each node only its own local view:
	// direct observations plus snapshots gossiped transitively on
	// contacts. Used to measure the cost of imperfect knowledge.
	KnowledgeDistributed
)

// Config configures one simulation run.
type Config struct {
	Trace   *trace.Trace
	Catalog *cache.Catalog
	Scheme  Scheme

	// NumCachingNodes K: how many caching nodes (NCLs) to select.
	NumCachingNodes int
	// WarmupFraction of the trace used for rate estimation before the
	// measurement phase starts. Default 0.3.
	WarmupFraction float64
	// PReq is the required probability that a new version reaches a
	// caching node within the item's freshness window. Default 0.9.
	PReq float64
	// MaxFanout bounds refresh-tree children per node. Default 3.
	MaxFanout int
	// MaxRelays bounds replication relays per destination. Default 5.
	MaxRelays int
	// CacheCapacity is the per-node store capacity in size units
	// (0 = unlimited).
	CacheCapacity int
	// CachePolicy selects the store eviction policy (default LRU).
	CachePolicy cache.Policy
	// Workload configures queries; a zero QueryRate disables them.
	Workload cache.WorkloadConfig
	// QueryRelays enables two-way query delegation: each pending query is
	// handed to up to this many relays, which fetch the data from
	// providers they meet and carry the response back (0 = off; queries
	// are then served only on direct requester–provider contact).
	QueryRelays int
	// Seed drives all randomness (workload; the trace carries its own).
	Seed int64
	// CentralityWindow for caching-node selection. Default 6h.
	CentralityWindow float64
	// Knowledge selects oracle (default) or distributed rate knowledge
	// for the protocols. Caching-node selection always uses the converged
	// estimate: the study target is the refresh protocol, not placement.
	Knowledge KnowledgeMode
	// DropProb injects independent message loss into every transmission.
	DropProb float64
	// Churn turns nodes off and on (suppressing their contacts).
	Churn network.ChurnConfig
	// RebuildInterval re-estimates contact rates and rebuilds the
	// scheme's structures (refresh trees) every this many simulated
	// seconds after warmup (0 = never). Requires a scheme implementing
	// Rebuilder; ignored otherwise. Useful when mobility drifts.
	RebuildInterval float64
	// Placement selects the caching-node placement policy (default:
	// greedy contact coverage, the paper family's NCL selection).
	Placement centrality.Placement
	// Recording receives what the run records; each of its collectors is
	// off when nil, and the zero value records nothing. Trace takes the
	// typed events (contacts, refresh facts, query outcomes, ...), Metrics
	// the run's totals once it has succeeded (contacts after the epoch,
	// deliveries and dropped queries, added to the engine/* counters), and
	// Lineage the causal span tree: one root per generated version,
	// extended at every duty assumption, relay handoff, delivery and duty
	// reassignment.
	// Timeline takes simulated-time telemetry (freshness ratio, cumulative
	// counts, per-node/per-item copy age) every TimelineTick simulated
	// seconds (<= 0: measurement phase / 240); its ticks are extra
	// simulator events, so Result.SimulatedEventCount grows with it on.
	Recording obs.Recording
	// ContactTimeline, when non-nil, is the pre-compiled contact timeline
	// for Trace (network.CompileTimeline). Sweeps compile it once per
	// trace and share it read-only across replicates and cells; nil
	// compiles on the fly. Must match Trace's contacts exactly.
	ContactTimeline []eventsim.StaticEvent
	// Reuse, when non-nil, recycles worker-local run state (simulator
	// storage, scheme scratch, plan buffers) from a previous engine on the
	// same worker. The previous run must be fully finished — results
	// extracted — before its Reuse is handed to a new engine.
	Reuse *Reuse
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.WarmupFraction == 0 {
		out.WarmupFraction = 0.3
	}
	if out.PReq == 0 {
		out.PReq = 0.9
	}
	if out.MaxFanout == 0 {
		out.MaxFanout = 3
	}
	if out.MaxRelays == 0 {
		out.MaxRelays = 5
	}
	if out.CentralityWindow == 0 {
		out.CentralityWindow = 6 * 3600
	}
	return out
}

func (c *Config) validate() error {
	switch {
	case c.Trace == nil:
		return errors.New("core: nil trace")
	case c.Catalog == nil:
		return errors.New("core: nil catalog")
	case c.Scheme == nil:
		return errors.New("core: nil scheme")
	case c.NumCachingNodes <= 0:
		return fmt.Errorf("core: non-positive caching node count %d", c.NumCachingNodes)
	case c.NumCachingNodes >= c.Trace.N:
		return fmt.Errorf("core: %d caching nodes for %d-node trace", c.NumCachingNodes, c.Trace.N)
	// Each range test is written so that NaN, which fails every
	// comparison, fails it too.
	case !(c.WarmupFraction > 0 && c.WarmupFraction < 1):
		return fmt.Errorf("core: warmup fraction %v outside (0,1)", c.WarmupFraction)
	case !(c.PReq > 0 && c.PReq <= 1):
		return fmt.Errorf("core: pReq %v outside (0,1]", c.PReq)
	case c.MaxFanout < 0 || c.MaxRelays < 0:
		return fmt.Errorf("core: negative fanout %d or relays %d", c.MaxFanout, c.MaxRelays)
	case !(c.CentralityWindow > 0) || math.IsInf(c.CentralityWindow, 1):
		return fmt.Errorf("core: centrality window %v is not a finite positive number", c.CentralityWindow)
	case !(c.DropProb >= 0 && c.DropProb < 1):
		return fmt.Errorf("core: drop probability %v outside [0,1)", c.DropProb)
	case !(c.RebuildInterval >= 0) || math.IsInf(c.RebuildInterval, 1):
		return fmt.Errorf("core: rebuild interval %v is not a finite non-negative number", c.RebuildInterval)
	case math.IsNaN(c.Recording.TimelineTick) || math.IsInf(c.Recording.TimelineTick, 0):
		return fmt.Errorf("core: timeline tick %v is not a finite number", c.Recording.TimelineTick)
	case c.QueryRelays < 0:
		return fmt.Errorf("core: negative query relay count %d", c.QueryRelays)
	}
	// A zero rate turns queries off; any other rate, NaN included, must
	// make a workload GenerateQueries accepts.
	if c.Workload.QueryRate != 0 {
		if err := c.Workload.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	// The trace itself is validated once, by network.New.
	for _, it := range c.Catalog.Items() {
		if int(it.Source) >= c.Trace.N {
			return fmt.Errorf("core: item %d source %d outside trace", it.ID, it.Source)
		}
	}
	return nil
}

// Engine runs one scheme over one trace and aggregates metrics.
type Engine struct {
	cfg       Config
	sim       *eventsim.Simulator
	net       *network.Net
	collector *metrics.Collector
	book      *cache.QueryBook

	epoch   float64
	horizon float64
	// epochEvent is the one-event timeline that starts the measurement
	// phase, held here so that attaching it allocates nothing.
	epochEvent [1]eventsim.StaticEvent

	rt         *Runtime
	distEst    *centrality.DistributedEstimator // non-nil under KnowledgeDistributed
	delegation *delegationState                 // non-nil when QueryRelays > 0
	// stores is indexed by NodeID (nil for non-caching nodes); created at
	// the measurement epoch once the caching set is known.
	stores  []*cache.Store
	sources map[trace.NodeID][]cache.ItemID // node -> items it sources
	// queries is the run's query log in issue order: GenerateQueries
	// fills it requester by requester, then each dispatched query
	// overwrites the next slot, so the query with ID k sits at slot k. The
	// book points into it. issued numbers the queries as they are
	// dispatched.
	queries []cache.Query
	issued  int
	// qscratch is resolveFor's reusable snapshot of a pending-query list
	// (Resolve mutates the live list mid-iteration). Contacts are
	// processed one at a time, so a single buffer serves every call.
	qscratch []*cache.Query
	// canServe is indexed by NodeID: whether the node is a caching node
	// or an item source, the only nodes servableCopy finds a copy at.
	// Set at the measurement epoch.
	canServe []bool
	// serversOnly skips the scheme, query resolution and delegation on
	// contacts with neither endpoint in canServe: the scheme declared
	// Runtime.ActsOnlyAtServers and delegation is off.
	serversOnly bool

	// Observability: rec is cfg.Recording, the one path every fact is
	// recorded through. copySpan[node][item] is the delivery span of a
	// caching node's current copy, the parent of onward syncs; its rows
	// exist only for caching nodes and only with lineage on.
	// epochContacts is the network's contact count when the epoch event
	// begins: every contact after it reaches the measurement phase.
	rec           *obs.Recording
	copySpan      [][]obs.SpanID
	epochContacts int

	// queryDrops counts workload queries discarded because their item is
	// missing from the catalog; surfaced as Result.QueriesDropped so
	// malformed workloads cannot lose queries without a signal.
	queryDrops int

	// scratch is the run's allocation surface (recycled via Config.Reuse,
	// transient otherwise); estObserveAll keeps the converged estimator
	// learning past the epoch, needed only when periodic rebuilds will
	// read it again.
	scratch       *runScratch
	estObserveAll bool
	// compile is the measurement plan's compile, running beside the
	// warm-up (see Run).
	compile planCompile

	initErr error // deferred error from the epoch event
}

// planCompile runs the plan compile on its own goroutine. join waits for
// it and returns its error; a panic in the compile is recovered there and
// raised again by join, on the joining goroutine. A compile that never
// started, or was joined before, joins at once.
type planCompile struct {
	wg       sync.WaitGroup
	err      error
	panicked any
}

func (c *planCompile) start(compile func() error) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer func() { c.panicked = recover() }()
		c.err = compile()
	}()
}

func (c *planCompile) join() error {
	c.wg.Wait()
	if p := c.panicked; p != nil {
		c.panicked = nil
		panic(p)
	}
	return c.err
}

// NewEngine validates the configuration and prepares a run.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	scratch := cfg.Reuse.acquire()
	e := &Engine{
		cfg:       cfg,
		sim:       scratch.sim,
		scratch:   scratch,
		collector: metrics.New(),
		book:      cache.NewQueryBook(cfg.Trace.N, cfg.Catalog.Len()),
		stores:    make([]*cache.Store, cfg.Trace.N),
		sources:   make(map[trace.NodeID][]cache.ItemID),
	}
	e.rec = &e.cfg.Recording
	e.epoch = cfg.Trace.Duration * cfg.WarmupFraction
	e.horizon = cfg.Trace.Duration
	if cfg.QueryRelays > 0 {
		e.delegation = newDelegationState(cfg.QueryRelays)
	}
	for _, it := range cfg.Catalog.Items() {
		e.sources[it.Source] = append(e.sources[it.Source], it.ID)
	}
	var err error
	e.net, err = network.New(e.sim, cfg.Trace, network.Config{
		DropProb: cfg.DropProb,
		Churn:    cfg.Churn,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Run executes the simulation and returns the aggregated result.
func (e *Engine) Run() (metrics.Result, error) {
	start := time.Now()

	estimator := &e.scratch.est
	if err := estimator.Reset(e.cfg.Trace.N, 0); err != nil {
		return metrics.Result{}, err
	}
	if e.cfg.Knowledge == KnowledgeDistributed {
		e.distEst = centrality.NewDistributedEstimator(e.cfg.Trace.N, 0)
	}
	// The converged estimator keeps learning past the epoch only when a
	// periodic rebuild will read its counts again; otherwise the epoch
	// snapshot is the last reader and post-epoch observation is dead work.
	// Contacts at exactly the epoch run before the epoch event (their
	// timeline is attached first) and land in its snapshot, so they always
	// observe.
	if e.cfg.RebuildInterval > 0 {
		_, e.estObserveAll = e.cfg.Scheme.(Rebuilder)
	}
	e.net.Attach(network.HandlerFunc(func(c *network.Contact) {
		if e.distEst != nil {
			// Local views keep learning for the whole run, like real nodes.
			e.distEst.Observe(c.A, c.B, c.Time)
		}
		if e.estObserveAll || c.Time <= e.epoch {
			estimator.Observe(c.A, c.B)
		}
		if c.Time < e.epoch {
			return
		}
		if e.rt == nil || e.initErr != nil {
			return
		}
		if e.rec.Trace != nil {
			e.rec.Trace.Emit(obs.Event{
				T: c.Time, Kind: obs.KindContactBegin,
				A: int32(c.A), B: int32(c.B), Item: -1, Ver: -1, Val: c.Duration,
			})
		}
		if !e.serversOnly || e.canServe[c.A] || e.canServe[c.B] {
			e.cfg.Scheme.OnContact(c)
			e.resolveQueries(c)
			e.processDelegation(c)
		}
		if e.rec.Trace != nil {
			e.rec.Trace.Emit(obs.Event{
				T: c.Time + c.Duration, Kind: obs.KindContactEnd,
				A: int32(c.A), B: int32(c.B), Item: -1, Ver: -1,
			})
		}
	}))
	if err := e.net.ScheduleCompiled(e.cfg.ContactTimeline); err != nil {
		return metrics.Result{}, err
	}

	// The epoch event finalizes rates, selects caching nodes, initializes
	// the scheme and attaches the measurement phase's timelines.
	e.epochEvent[0] = eventsim.StaticEvent{Time: e.epoch}
	if err := e.sim.AttachTimeline(e.epochEvent[:], func(_ int32, now float64) {
		if err := e.startMeasurement(estimator, now); err != nil {
			e.initErr = err
			e.sim.Stop()
		}
	}); err != nil {
		return metrics.Result{}, err
	}

	// The measurement plan depends only on the configuration and the
	// epoch, so it is compiled on a second goroutine while the warm-up
	// replays, and startMeasurement joins it. Run joins it again on every
	// return, so no compile outlives a failed run to write into a Reuse
	// the next engine holds.
	e.compile.start(e.compilePlan)
	defer e.compile.join()

	if _, err := e.sim.Run(e.horizon); err != nil {
		return metrics.Result{}, err
	}
	if e.initErr != nil {
		return metrics.Result{}, e.initErr
	}

	if e.rec.Trace != nil {
		// Query outcomes settle only once the run ends (a pending query may
		// yet be served), so hits and misses are emitted here, in the
		// deterministic issue order of the query book.
		for _, q := range e.book.All() {
			ev := obs.Event{A: int32(q.Requester), B: -1, Item: int32(q.Item), Ver: -1}
			switch {
			case q.Served && q.Valid:
				ev.T, ev.Kind, ev.Ver = q.ServedAt, obs.KindCacheHit, int32(q.ServedVersion)
				ev.Val = q.ServedAt - q.ServedGeneratedAt
			case q.Served:
				ev.T, ev.Kind, ev.Ver = q.ServedAt, obs.KindCacheMiss, int32(q.ServedVersion)
			default:
				ev.T, ev.Kind = e.horizon, obs.KindCacheMiss
			}
			e.rec.Trace.Emit(ev)
		}
	}

	txByKind := make(map[string]int)
	refreshTx := 0
	for _, kind := range e.net.TransmissionKinds() {
		n := e.net.Transmissions(kind)
		txByKind[kind] = n
		if kind != "data" && kind != "query" { // access-path traffic is not refresh overhead
			refreshTx += n
		}
	}
	res := metrics.Aggregate(e.collector, e.book.All(), txByKind, refreshTx)
	if refreshTx > 0 {
		sourceTx := 0
		loads := make([]float64, e.cfg.Trace.N)
		maxLoad := 0
		for n := 0; n < e.cfg.Trace.N; n++ {
			sent := e.net.SentBy(trace.NodeID(n))
			loads[n] = float64(sent)
			if sent > maxLoad {
				maxLoad = sent
			}
		}
		for s := range e.sources {
			sourceTx += e.net.SentBy(s)
		}
		res.SourceTxShare = float64(sourceTx) / float64(refreshTx)
		res.MaxNodeTxShare = float64(maxLoad) / float64(refreshTx)
		res.LoadGini = stats.Gini(loads)
	}
	res.QueriesDropped = e.queryDrops
	res.Scheme = e.cfg.Scheme.Name()
	res.Trace = e.cfg.Trace.Name
	res.Seed = e.cfg.Seed
	res.SimulatedEventCount = e.sim.Processed()
	res.WallClockSeconds = time.Since(start).Seconds()
	if sr, ok := e.cfg.Scheme.(StatsReporter); ok {
		// Scheme stats ride along for analysis-validation experiments.
		res.SchemeStats = sr.SchemeStats()
	}
	// The registry is shared by every run of the process, so a run adds
	// its totals only once it has succeeded: a failed run adds nothing.
	e.rec.Metrics.Add("engine/contacts", int64(e.net.ContactsDispatched()-e.epochContacts))
	e.rec.Metrics.Add("engine/deliveries", int64(e.collector.DeliveryCount()))
	e.rec.Metrics.Add("engine/query_drops", int64(e.queryDrops))
	return res, nil
}

// Collector exposes the raw metric log (delay CDFs etc.) after Run.
func (e *Engine) Collector() *metrics.Collector { return e.collector }

// ContactsDispatched reports how many trace contacts the network fired
// during the run, warm-up included; contacts suppressed by churn are not
// counted. The engine/contacts counter counts only the contacts after the
// epoch event, so this count is the larger one: 115,200 against 80,485 on
// the reality-like trace at seed 42. Of those, a scheme that declared
// Runtime.ActsOnlyAtServers gets only the contacts with a caching node or
// an item source at one end, unless query delegation is on. The
// timeline's contacts series samples the same count.
func (e *Engine) ContactsDispatched() int { return e.net.ContactsDispatched() }

// Runtime exposes the runtime after Run (nil if warmup never completed);
// used by experiments that inspect the hierarchy.
func (e *Engine) Runtime() *Runtime { return e.rt }

func (e *Engine) startMeasurement(est *centrality.Estimator, now float64) error {
	e.epochContacts = e.net.ContactsDispatched()
	rates, err := est.Rates(now)
	if err != nil {
		return fmt.Errorf("core: rate estimation: %w", err)
	}
	exclude := make(map[trace.NodeID]bool, len(e.sources))
	for s := range e.sources {
		exclude[s] = true
	}
	caching, err := centrality.Select(e.cfg.Placement, rates, e.cfg.CentralityWindow, e.cfg.NumCachingNodes, exclude, e.cfg.Seed)
	if err != nil {
		return fmt.Errorf("core: caching node selection: %w", err)
	}
	e.canServe = make([]bool, e.cfg.Trace.N)
	if e.rec.Lineage != nil {
		e.copySpan = make([][]obs.SpanID, e.cfg.Trace.N)
	}
	for _, cn := range caching {
		st, err := cache.NewStoreWithPolicy(e.cfg.Catalog, e.cfg.CacheCapacity, e.cfg.CachePolicy)
		if err != nil {
			return err
		}
		e.stores[cn] = st
		e.canServe[cn] = true
		if e.copySpan != nil {
			e.copySpan[cn] = make([]obs.SpanID, e.cfg.Catalog.Len())
		}
	}
	for s := range e.sources {
		e.canServe[s] = true
	}

	e.rt = &Runtime{
		N:            e.cfg.Trace.N,
		Catalog:      e.cfg.Catalog,
		Rates:        rates,
		CachingNodes: caching,
		Epoch:        now,
		Horizon:      e.horizon,
		PReq:         e.cfg.PReq,
		MaxFanout:    e.cfg.MaxFanout,
		MaxRelays:    e.cfg.MaxRelays,
		Seed:         e.cfg.Seed,
		Rec:          e.rec,
		eng:          e,
		isCaching:    make([]bool, e.cfg.Trace.N),
	}
	for _, cn := range caching {
		e.rt.isCaching[cn] = true
	}
	if err := e.cfg.Scheme.Init(e.rt); err != nil {
		return fmt.Errorf("core: scheme init: %w", err)
	}
	// Delegation hands queries to any node, so it keeps every contact.
	e.serversOnly = e.rt.serversOnly && e.delegation == nil

	if e.cfg.RebuildInterval > 0 {
		if rb, ok := e.cfg.Scheme.(Rebuilder); ok {
			// Rebuilds estimate rates over the window since the previous
			// (re)build, so they track drift instead of averaging over
			// every regime ever seen. They are attached as one timeline
			// before the plan, so on equal times a rebuild runs first.
			var rebuilds []eventsim.StaticEvent
			for t := now + e.cfg.RebuildInterval; t < e.horizon; t += e.cfg.RebuildInterval {
				rebuilds = append(rebuilds, eventsim.StaticEvent{Time: t})
			}
			lastCounts := est.Snapshot()
			lastTime := now
			if err := e.sim.AttachTimeline(rebuilds, func(_ int32, tnow float64) {
				cur := est.Snapshot()
				fresh, err := centrality.RatesBetweenSnapshots(lastCounts, cur, tnow-lastTime)
				if err != nil {
					return
				}
				lastCounts, lastTime = cur, tnow
				e.rt.Rates = fresh
				if err := rb.Rebuild(e.rt); err != nil && e.initErr == nil {
					e.initErr = err
					e.sim.Stop()
					return
				}
				// Responsibility for future versions now follows the
				// rebuilt trees; one reassignment per item, rooted at its
				// source.
				for _, it := range e.cfg.Catalog.View() {
					e.rec.Reassign(tnow, int32(it.Source), int32(it.ID))
				}
			}); err != nil {
				return err
			}
		}
	}

	// The plan, compiled beside the warm-up, is attached after the
	// rebuilds, so on equal times a rebuild runs first.
	if err := e.compile.join(); err != nil {
		return err
	}
	return e.sim.AttachTimeline(e.scratch.planEvents, e.runPlanAction)
}

// compilePlan compiles everything the measurement phase dispatches on its
// own into one plan, which startMeasurement attaches as one timeline. All
// of it follows from the configuration and the epoch, so Run compiles it
// on a second goroutine while the warm-up replays. It therefore reads only
// the configuration, records nothing, and writes only what nothing
// touches before the epoch: the plan buffers, e.queries and the query
// book (the warm-up's contact handler returns before reaching the book).
//
// Actions are appended as runs that are each already in time order:
// generations (one run per item, versions in order), freshness samples,
// timeline ticks, then query issues (one run per requester). Merging the
// runs' StaticEvent projection puts the earlier run first on equal times,
// so equal-time actions run in that order, queries by requester. The
// entries are then put in that merged order, so the measurement phase
// reads the plan, and writes the query log, front to back.
func (e *Engine) compilePlan() error {
	plan := e.scratch.plan[:0]
	runs := e.scratch.planRuns[:0]

	// Version generation events.
	for idx, it := range e.cfg.Catalog.View() {
		for v := 0; ; v++ {
			at := cache.VersionTime(it, e.epoch, v)
			if at >= e.horizon {
				break
			}
			plan = append(plan, planAction{time: at, op: opGenerate, item: int32(idx), ver: int32(v)})
		}
		runs = append(runs, len(plan))
	}

	// Freshness sampling.
	interval := (e.horizon - e.epoch) / 240
	for t := e.epoch + interval; t < e.horizon; t += interval {
		plan = append(plan, planAction{time: t, op: opSample})
	}
	runs = append(runs, len(plan))

	// Telemetry timeline: planned only when a sampler is attached, so the
	// timeline-off event count (and thus determinism baselines) are
	// untouched.
	if e.rec.Timeline != nil {
		tick := e.rec.TimelineTick
		if tick <= 0 {
			tick = (e.horizon - e.epoch) / 240
		}
		for t := e.epoch + tick; t < e.horizon; t += tick {
			plan = append(plan, planAction{time: t, op: opTimeline})
		}
		runs = append(runs, len(plan))
	}

	// Query workload.
	if e.cfg.Workload.QueryRate > 0 {
		qs, err := cache.GenerateQueries(e.cfg.Workload, e.cfg.Catalog, e.cfg.Trace.N, e.epoch, e.horizon, e.cfg.Seed)
		if err != nil {
			return err
		}
		e.queries = qs
		e.book.Reserve(qs)
		// Room for every query at once; make, not slices.Grow, which
		// allocates twice under the race detector.
		if cap(plan)-len(plan) < len(qs) {
			plan = append(make([]planAction, 0, len(plan)+len(qs)), plan...)
		}
		for i := range qs {
			if i > 0 && qs[i].Requester != qs[i-1].Requester {
				runs = append(runs, len(plan))
			}
			plan = append(plan, planAction{time: qs[i].IssuedAt, op: opQuery, item: int32(qs[i].Item), node: int32(qs[i].Requester)})
		}
		runs = append(runs, len(plan))
	}

	events := e.scratch.planEvents[:0]
	if cap(events) < len(plan) {
		events = make([]eventsim.StaticEvent, 0, len(plan))
	}
	for i := range plan {
		events = append(events, eventsim.StaticEvent{Time: plan[i].time, Arg: int32(i)})
	}
	events, spare := eventsim.MergeRuns(events, e.scratch.planSpare, runs)
	// Each merged event's Arg names the entry that goes to its slot. Walk
	// the cycles of that permutation, moving entries in place and setting
	// each Arg to its slot.
	for k := range events {
		if int(events[k].Arg) == k {
			continue
		}
		held := plan[k]
		j := k
		for {
			src := int(events[j].Arg)
			events[j].Arg = int32(j)
			if src == k {
				plan[j] = held
				break
			}
			plan[j] = plan[src]
			j = src
		}
	}
	e.scratch.plan, e.scratch.planRuns = plan, runs
	e.scratch.planEvents, e.scratch.planSpare = events, spare
	return nil
}

// runPlanAction dispatches one entry of the compiled measurement plan.
func (e *Engine) runPlanAction(arg int32, now float64) {
	a := &e.scratch.plan[arg]
	switch a.op {
	case opGenerate:
		it := e.cfg.Catalog.View()[a.item]
		e.collector.RecordGeneration()
		// The root span exists before the scheme sees the version, so
		// every fact the scheme records can parent on it via Rec.Root.
		e.rec.Generate(now, int32(it.Source), int32(it.ID), a.ver)
		e.cfg.Scheme.OnGenerate(it, int(a.ver), now)
	case opSample:
		e.collector.RecordSample(now, e.freshnessRatio(now))
	case opTimeline:
		e.sampleTimeline(now)
	case opQuery:
		q := &e.queries[e.issued]
		*q = cache.Query{Requester: trace.NodeID(a.node), Item: cache.ItemID(a.item), IssuedAt: now}
		e.issueQuery(q, now)
	}
}

// store returns the node's cache store, or nil for non-caching nodes and
// out-of-range IDs.
func (e *Engine) store(node trace.NodeID) *cache.Store {
	if node < 0 || int(node) >= len(e.stores) {
		return nil
	}
	return e.stores[node]
}

func (e *Engine) deliverToCache(from, node trace.NodeID, c cache.Copy, now float64, parent obs.SpanID) (obs.SpanID, bool) {
	st := e.store(node)
	if st == nil {
		return 0, false
	}
	it, err := e.cfg.Catalog.Item(c.Item)
	if err != nil {
		return 0, false
	}
	accepted, err := st.Put(c, now)
	if err != nil || !accepted {
		return 0, false
	}
	e.collector.RecordDelivery(metrics.Delivery{
		Item:        c.Item,
		Version:     c.Version,
		Node:        node,
		GeneratedAt: c.GeneratedAt,
		DeliveredAt: now,
		OnTime:      now-c.GeneratedAt <= it.FreshnessWindow,
	})
	sp := e.rec.Delivered(now, parent, int32(from), int32(node), int32(c.Item), int32(c.Version), now-c.GeneratedAt)
	if e.copySpan != nil {
		e.copySpan[node][c.Item] = sp
	}
	return sp, true
}

// sampleTimeline records one telemetry tick: run-level aggregates first,
// then the age of every held (caching node, item) copy. It reads only
// run-local state (collector, net, stores); the process-wide metric
// registry holds only the totals of runs that have finished.
func (e *Engine) sampleTimeline(now float64) {
	tl := e.rec.Timeline
	tl.Sample(now, "freshness_ratio", -1, -1, e.freshnessRatio(now))
	tl.Sample(now, "contacts", -1, -1, float64(e.net.ContactsDispatched()))
	tl.Sample(now, "deliveries", -1, -1, float64(e.collector.DeliveryCount()))
	tl.Sample(now, "transmissions", -1, -1, float64(e.net.TotalTransmissions()))
	for _, cn := range e.rt.CachingNodes {
		st := e.stores[cn]
		for _, it := range e.cfg.Catalog.View() {
			if c, ok := st.Peek(it.ID); ok {
				tl.Sample(now, "copy_age", int32(cn), int32(it.ID), now-c.GeneratedAt)
			}
		}
	}
}

// freshnessRatio is the fraction of (caching node, item) pairs holding the
// newest version at time now.
func (e *Engine) freshnessRatio(now float64) float64 {
	total := 0
	fresh := 0
	for _, cn := range e.rt.CachingNodes {
		st := e.stores[cn]
		for _, it := range e.cfg.Catalog.View() {
			total++
			c, ok := st.Peek(it.ID)
			if !ok {
				continue
			}
			if c.Version >= cache.CurrentVersion(it, e.rt.Epoch, now) {
				fresh++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(fresh) / float64(total)
}

// issueQuery numbers a dispatched query and registers it, resolving it
// locally when the requester itself holds a copy (it is a caching node or
// the item's source). Queries are numbered in dispatch order, dropped ones
// included, so a query's ID is its index in issue-time order.
func (e *Engine) issueQuery(q *cache.Query, now float64) {
	q.ID = e.issued
	e.issued++
	it, err := e.cfg.Catalog.Item(q.Item)
	if err != nil {
		// A query for an item the catalog does not know cannot be served;
		// count the drop instead of swallowing it so malformed workloads
		// are visible in the result and the metric registry.
		e.queryDrops++
		return
	}
	e.book.Issue(q)
	if e.rec.Trace != nil {
		e.rec.Trace.Emit(obs.Event{
			T: now, Kind: obs.KindQueryIssued,
			A: int32(q.Requester), B: -1, Item: int32(q.Item), Ver: -1,
		})
	}
	if q.Requester == it.Source {
		v := cache.CurrentVersion(it, e.rt.Epoch, now)
		if v >= 0 {
			_ = e.book.Resolve(q, it, cache.Copy{
				Item: it.ID, Version: v,
				GeneratedAt: cache.VersionTime(it, e.rt.Epoch, v),
				ReceivedAt:  now,
			}, e.rt.Epoch, now)
		}
		return
	}
	if st := e.store(q.Requester); st != nil {
		if c, ok := st.Peek(q.Item); ok && !c.Expired(it, now) {
			_ = e.book.Resolve(q, it, c, e.rt.Epoch, now)
		}
	}
}

// resolveQueries serves pending queries across a live contact: each
// endpoint's pending queries are answered when the other endpoint holds a
// copy (caching node) or is the item's source. Each answer costs one
// "data" transmission.
func (e *Engine) resolveQueries(c *network.Contact) {
	e.resolveFor(c, c.A, c.B)
	e.resolveFor(c, c.B, c.A)
}

func (e *Engine) resolveFor(c *network.Contact, requester, provider trace.NodeID) {
	if !e.canServe[provider] {
		return
	}
	pending := e.book.Pending(requester)
	if len(pending) == 0 {
		return
	}
	// The walk below serves nothing unless the provider has a servable
	// copy of some pending item. Without one it is skipped, but its
	// lookups are still recorded: one Touch per item stands for that
	// item's providerCopy calls, so LRU and LFU eviction see the same
	// uses.
	counts := e.book.PendingCounts(requester)
	if !e.servesAny(provider, counts, c.Time) {
		if st := e.store(provider); st != nil {
			for id, n := range counts {
				if n > 0 && provider != e.cfg.Catalog.View()[id].Source {
					st.Touch(cache.ItemID(id), int(n), c.Time)
				}
			}
		}
		return
	}
	// Snapshot: Resolve mutates the pending list.
	qs := append(e.qscratch[:0], pending...)
	e.qscratch = qs
	for _, q := range qs {
		it, err := e.cfg.Catalog.Item(q.Item)
		if err != nil {
			continue
		}
		// Expired data is invalid and is never provided; the query stays
		// pending for a provider with a live copy (providerCopy enforces
		// this).
		cp, have := e.providerCopy(provider, q.Item, c.Time)
		if !have {
			continue
		}
		if !c.Send(provider, requester, "data") {
			return // the message was lost
		}
		_ = e.book.Resolve(q, it, cp, e.rt.Epoch, c.Time)
	}
}

// servesAny reports whether the provider has a servable copy of any item
// with a positive count.
func (e *Engine) servesAny(provider trace.NodeID, counts []int32, now float64) bool {
	for id, n := range counts {
		if n > 0 {
			if _, ok := e.servableCopy(provider, e.cfg.Catalog.View()[id], now); ok {
				return true
			}
		}
	}
	return false
}
