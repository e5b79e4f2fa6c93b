// Package freshcache is a trace-driven simulator and protocol library for
// distributed maintenance of cache freshness in opportunistic mobile
// networks, reproducing Gao, Cao, Srivatsa and Iyengar (ICDCS 2012).
//
// Personal mobile devices meet intermittently; data items are cached
// cooperatively at a few central "caching nodes" and refreshed
// periodically at their sources. The library implements the paper's
// scheme — a refresh hierarchy in which each caching node is responsible
// for refreshing a specific set of other caching nodes, backed by
// probabilistic replication through relay nodes so every refresh meets its
// freshness window with a required probability — plus every baseline the
// evaluation compares against, the mobility models, and the full
// experiment suite.
//
// Quickstart:
//
//	sim, err := freshcache.New(
//		freshcache.WithPreset("infocom-like"),
//		freshcache.WithScheme(freshcache.SchemeHierarchical),
//		freshcache.WithUniformItems(5, 2*time.Hour),
//		freshcache.WithCachingNodes(8),
//		freshcache.WithQueryWorkload(4, 1.0),
//		freshcache.WithSeed(42),
//	)
//	if err != nil { ... }
//	res, err := sim.Run()
//	fmt.Println(res.FreshnessRatio, res.ValidAnswers, res.TxPerVersion)
package freshcache

import (
	"errors"
	"fmt"
	"math"
	"time"

	"freshcache/internal/cache"
	"freshcache/internal/core"
	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
	"freshcache/internal/network"
	"freshcache/internal/obs"
	"freshcache/internal/trace"
)

// Result is the aggregated outcome of one simulation run. See the field
// documentation in the metrics package; headline fields are
// FreshnessRatio, ValidAnswers, TxPerVersion and SourceTxShare.
type Result = metrics.Result

// SchemeName selects a freshness-maintenance protocol.
type SchemeName string

// The available schemes, from floor to ceiling.
const (
	// SchemeNoRefresh fills caches once and never refreshes (floor).
	SchemeNoRefresh SchemeName = "norefresh"
	// SchemeDirect refreshes caching nodes only on direct contact with the
	// data source.
	SchemeDirect SchemeName = "direct"
	// SchemeDirectReplicated keeps all responsibility at the source but
	// adds probabilistic relay replication.
	SchemeDirectReplicated SchemeName = "direct-rep"
	// SchemeHierarchicalNoRep distributes responsibility through the
	// refresh hierarchy without relay replication.
	SchemeHierarchicalNoRep SchemeName = "hierarchical-norep"
	// SchemeHierarchical is the paper's scheme: hierarchy + replication.
	SchemeHierarchical SchemeName = "hierarchical"
	// SchemeRandomReplicated is the hierarchy with uniformly random relay
	// selection — the ablation showing the analysis-driven selection
	// matters.
	SchemeRandomReplicated SchemeName = "random-rep"
	// SchemeSprayAndWait is the knowledge-free DTN baseline: 8 copies of
	// each version binary-sprayed through the network.
	SchemeSprayAndWait SchemeName = "spray"
	// SchemeEpidemic floods every version to every node (ceiling).
	SchemeEpidemic SchemeName = "epidemic"
)

// Schemes returns every scheme name in canonical reporting order.
func Schemes() []SchemeName {
	var out []SchemeName
	for _, s := range core.Schemes() {
		out = append(out, SchemeName(s.Name))
	}
	return out
}

// Presets returns the built-in synthetic trace presets.
func Presets() []string {
	return []string{"reality-like", "infocom-like"}
}

// Contact is one pairwise contact interval of a user-supplied trace.
type Contact struct {
	A, B       int
	Start, End time.Duration
}

// ItemSpec describes one periodically refreshed data item.
type ItemSpec struct {
	// Source is the node that generates the item's versions.
	Source int
	// Refresh is the interval between versions.
	Refresh time.Duration
	// Phase offsets the item's publication schedule within the refresh
	// cycle (0 <= Phase < Refresh); items need not publish simultaneously.
	Phase time.Duration
	// Window is the freshness requirement: a new version should reach
	// every caching node within this duration. Defaults to Refresh.
	Window time.Duration
	// Lifetime is how long a version stays valid. Defaults to 2×Refresh.
	Lifetime time.Duration
	// Size in abstract storage units (default 1).
	Size int
}

type options struct {
	presetName string
	traceFile  string
	custom     *trace.Trace

	scheme          SchemeName
	items           []ItemSpec
	cachingNodes    int
	seed            int64
	queriesPerDay   float64
	zipf            float64
	pReq            float64
	fanout          int
	maxRelays       int
	warmup          float64
	cacheCapacity   int
	cachePolicy     cache.Policy
	distributed     bool
	dropProb        float64
	churnUp         float64
	churnDown       float64
	queryRelays     int
	rebuildInterval float64
	rec             obs.Recording
	reuse           *core.Reuse
}

// Option configures a Simulation.
type Option func(*options) error

// WithPreset selects a built-in synthetic trace ("reality-like" or
// "infocom-like").
func WithPreset(name string) Option {
	return func(o *options) error {
		if _, err := mobility.Preset(name); err != nil {
			return err
		}
		o.presetName = name
		return nil
	}
}

// WithTraceFile loads the contact trace from a file in the text format
// documented in the README (one "a b start end" line per contact).
func WithTraceFile(path string) Option {
	return func(o *options) error {
		if path == "" {
			return errors.New("freshcache: empty trace path")
		}
		o.traceFile = path
		return nil
	}
}

// WithContacts supplies a custom contact trace directly: n nodes observed
// for the given duration.
func WithContacts(n int, duration time.Duration, contacts []Contact) Option {
	return func(o *options) error {
		tr := &trace.Trace{Name: "custom", N: n, Duration: duration.Seconds()}
		for _, c := range contacts {
			tr.Contacts = append(tr.Contacts, trace.Contact{
				A: trace.NodeID(c.A), B: trace.NodeID(c.B),
				Start: c.Start.Seconds(), End: c.End.Seconds(),
			})
		}
		tr.Normalize()
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("freshcache: %w", err)
		}
		o.custom = tr
		return nil
	}
}

// WithScheme selects the freshness-maintenance protocol (default
// SchemeHierarchical).
func WithScheme(s SchemeName) Option {
	return func(o *options) error {
		if _, err := core.SchemeByName(string(s)); err != nil {
			return fmt.Errorf("freshcache: %w", err)
		}
		o.scheme = s
		return nil
	}
}

// WithItems supplies the data items explicitly.
func WithItems(items ...ItemSpec) Option {
	return func(o *options) error {
		if len(items) == 0 {
			return errors.New("freshcache: no items")
		}
		o.items = append([]ItemSpec(nil), items...)
		return nil
	}
}

// WithUniformItems creates n identical items refreshed at the given
// interval, sourced at nodes 0..n-1.
func WithUniformItems(n int, refresh time.Duration) Option {
	return func(o *options) error {
		if n <= 0 {
			return fmt.Errorf("freshcache: non-positive item count %d", n)
		}
		o.items = o.items[:0]
		for i := 0; i < n; i++ {
			o.items = append(o.items, ItemSpec{Source: i, Refresh: refresh})
		}
		return nil
	}
}

// WithCachingNodes sets how many caching nodes (NCLs) are selected
// (default 8).
func WithCachingNodes(k int) Option {
	return func(o *options) error {
		if k <= 0 {
			return fmt.Errorf("freshcache: non-positive caching node count %d", k)
		}
		o.cachingNodes = k
		return nil
	}
}

// WithSeed sets the seed driving all randomness (default 1).
func WithSeed(seed int64) Option {
	return func(o *options) error {
		o.seed = seed
		return nil
	}
}

// WithQueryWorkload enables the query workload: each node issues
// perNodePerDay queries per day over items with the given Zipf popularity
// exponent.
func WithQueryWorkload(perNodePerDay, zipfExponent float64) Option {
	return func(o *options) error {
		if !(perNodePerDay > 0) || math.IsInf(perNodePerDay, 1) || !(zipfExponent > 0) || math.IsInf(zipfExponent, 1) {
			return fmt.Errorf("freshcache: bad workload (%v queries/day, zipf %v)", perNodePerDay, zipfExponent)
		}
		o.queriesPerDay = perNodePerDay
		o.zipf = zipfExponent
		return nil
	}
}

// WithFreshnessRequirement sets the required probability that a new
// version reaches each caching node within its freshness window
// (default 0.9).
func WithFreshnessRequirement(p float64) Option {
	return func(o *options) error {
		if !(p > 0 && p <= 1) {
			return fmt.Errorf("freshcache: requirement %v outside (0,1]", p)
		}
		o.pReq = p
		return nil
	}
}

// WithHierarchyFanout bounds children per node in the refresh hierarchy
// (default 3).
func WithHierarchyFanout(fanout int) Option {
	return func(o *options) error {
		if fanout <= 0 {
			return fmt.Errorf("freshcache: non-positive fanout %d", fanout)
		}
		o.fanout = fanout
		return nil
	}
}

// WithMaxRelays bounds replication relays per destination (default 5).
func WithMaxRelays(n int) Option {
	return func(o *options) error {
		if n <= 0 {
			return fmt.Errorf("freshcache: non-positive relay bound %d", n)
		}
		o.maxRelays = n
		return nil
	}
}

// WithWarmupFraction sets the fraction of the trace spent estimating
// contact rates before measurement starts (default 0.3).
func WithWarmupFraction(f float64) Option {
	return func(o *options) error {
		if !(f > 0 && f < 1) {
			return fmt.Errorf("freshcache: warmup fraction %v outside (0,1)", f)
		}
		o.warmup = f
		return nil
	}
}

// WithCacheCapacity bounds each caching node's store, in item size units
// (default: unlimited). Overfull stores evict per the configured policy
// (see WithCachePolicy; default LRU).
func WithCacheCapacity(units int) Option {
	return func(o *options) error {
		if units <= 0 {
			return fmt.Errorf("freshcache: non-positive capacity %d", units)
		}
		o.cacheCapacity = units
		return nil
	}
}

// WithCachePolicy selects the store eviction policy: "lru" (default) or
// "lfu".
func WithCachePolicy(policy string) Option {
	return func(o *options) error {
		switch policy {
		case "lru":
			o.cachePolicy = cache.EvictLRU
		case "lfu":
			o.cachePolicy = cache.EvictLFU
		default:
			return fmt.Errorf("freshcache: unknown cache policy %q (have lru, lfu)", policy)
		}
		return nil
	}
}

// WithDistributedKnowledge makes every node act on its own local
// contact-rate view (direct observations plus transitive gossip) instead
// of the converged oracle estimate — the realistic deployment setting.
func WithDistributedKnowledge() Option {
	return func(o *options) error {
		o.distributed = true
		return nil
	}
}

// WithMessageLoss drops each transmission independently with probability
// p in [0, 1).
func WithMessageLoss(p float64) Option {
	return func(o *options) error {
		if !(p >= 0 && p < 1) {
			return fmt.Errorf("freshcache: loss probability %v outside [0,1)", p)
		}
		o.dropProb = p
		return nil
	}
}

// WithChurn turns nodes off and on with exponential up and down periods
// of the given means; contacts involving a down node are suppressed.
func WithChurn(meanUp, meanDown time.Duration) Option {
	return func(o *options) error {
		if meanUp <= 0 || meanDown <= 0 {
			return fmt.Errorf("freshcache: churn periods must be positive, got %v/%v", meanUp, meanDown)
		}
		o.churnUp = meanUp.Seconds()
		o.churnDown = meanDown.Seconds()
		return nil
	}
}

// WithQueryDelegation enables the two-way relayed access path: each
// pending query is handed to up to `relays` intermediate nodes, which
// fetch the data from any provider they meet and carry the response back
// to the requester. Improves access delay and coverage at the cost of
// extra query/data transmissions.
func WithQueryDelegation(relays int) Option {
	return func(o *options) error {
		if relays <= 0 {
			return fmt.Errorf("freshcache: non-positive query relay count %d", relays)
		}
		o.queryRelays = relays
		return nil
	}
}

// WithRebuildInterval makes the scheme re-estimate contact rates (over
// the window since the last rebuild) and reconstruct its refresh
// hierarchy every interval — adaptation for drifting mobility. Only
// schemes with a hierarchy react; others ignore it.
func WithRebuildInterval(interval time.Duration) Option {
	return func(o *options) error {
		if interval <= 0 {
			return fmt.Errorf("freshcache: non-positive rebuild interval %v", interval)
		}
		o.rebuildInterval = interval.Seconds()
		return nil
	}
}

// WithRecording attaches one run's observability collectors (package
// internal/obs, handed out by Observer.Open): the engine and scheme emit
// typed events (contact begin/end, refresh scheduled/delivered,
// replication planned, cache hit/miss, …) into its trace, add the run's
// totals to its registry when it succeeds, extend a causal span tree for
// every generated version in its lineage, and sample freshness,
// cumulative counts and copy ages into its timeline every tick of
// simulated time. Any collector may be nil. A timeline schedules extra
// simulator events, so Result.SimulatedEventCount grows with it. The
// option exists for the module's own commands; callers outside the module
// observe runs through Result instead.
func WithRecording(rec obs.Recording) Option {
	return func(o *options) error {
		o.rec = rec
		return nil
	}
}

// WithRunStateReuse recycles worker-local engine state (simulator event
// storage, scheme scratch arenas, plan buffers) from a previous
// Simulation that used the same Reuse bundle. Intended for drivers that
// run many simulations back-to-back on one goroutine (freshsim's -runs
// mode, the sweep runner). Handing the bundle to a new Simulation
// invalidates the previous one entirely — including its post-run
// accessors (CachingNodes, RefreshTree) — so extract everything needed
// from a run before building the next. Nil is allowed (no reuse).
func WithRunStateReuse(r *core.Reuse) Option {
	return func(o *options) error {
		o.reuse = r
		return nil
	}
}

// Simulation is one configured run. Create with New; each Simulation runs
// once.
type Simulation struct {
	eng *core.Engine
	ran bool
}

// New builds a simulation from the options. Exactly one trace source
// (preset, file or custom contacts) must be provided; unspecified knobs
// take the documented defaults.
func New(opts ...Option) (*Simulation, error) {
	o := options{
		scheme:       SchemeHierarchical,
		cachingNodes: 8,
		seed:         1,
		zipf:         1.0,
	}
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("freshcache: nil option")
		}
		if err := opt(&o); err != nil {
			return nil, err
		}
	}

	tr, err := resolveTrace(&o)
	if err != nil {
		return nil, err
	}
	if len(o.items) == 0 {
		return nil, errors.New("freshcache: no items configured (use WithItems or WithUniformItems)")
	}
	items := make([]cache.Item, len(o.items))
	for i, spec := range o.items {
		window := spec.Window
		if window == 0 {
			window = spec.Refresh
		}
		lifetime := spec.Lifetime
		if lifetime == 0 {
			lifetime = 2 * spec.Refresh
		}
		size := spec.Size
		if size == 0 {
			size = 1
		}
		items[i] = cache.Item{
			ID:              cache.ItemID(i),
			Source:          trace.NodeID(spec.Source),
			Phase:           spec.Phase.Seconds(),
			RefreshInterval: spec.Refresh.Seconds(),
			FreshnessWindow: window.Seconds(),
			Lifetime:        lifetime.Seconds(),
			Size:            size,
		}
	}
	catalog, err := cache.NewCatalog(items)
	if err != nil {
		return nil, fmt.Errorf("freshcache: %w", err)
	}
	scheme, err := core.SchemeByName(string(o.scheme))
	if err != nil {
		return nil, fmt.Errorf("freshcache: %w", err)
	}

	cfg := core.Config{
		Trace:           tr,
		Catalog:         catalog,
		Scheme:          scheme,
		NumCachingNodes: o.cachingNodes,
		WarmupFraction:  o.warmup,
		PReq:            o.pReq,
		MaxFanout:       o.fanout,
		MaxRelays:       o.maxRelays,
		CacheCapacity:   o.cacheCapacity,
		CachePolicy:     o.cachePolicy,
		Seed:            o.seed,
		DropProb:        o.dropProb,
		RebuildInterval: o.rebuildInterval,
		QueryRelays:     o.queryRelays,
		Churn:           network.ChurnConfig{MeanUp: o.churnUp, MeanDown: o.churnDown},
		Recording:       o.rec,
		Reuse:           o.reuse,
	}
	if o.distributed {
		cfg.Knowledge = core.KnowledgeDistributed
	}
	if o.queriesPerDay > 0 {
		cfg.Workload = cache.WorkloadConfig{
			QueryRate:    o.queriesPerDay / (24 * 3600),
			ZipfExponent: o.zipf,
		}
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("freshcache: %w", err)
	}
	return &Simulation{eng: eng}, nil
}

func resolveTrace(o *options) (*trace.Trace, error) {
	sources := 0
	for _, set := range []bool{o.presetName != "", o.traceFile != "", o.custom != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, errors.New("freshcache: provide exactly one of WithPreset, WithTraceFile, WithContacts")
	}
	switch {
	case o.presetName != "":
		gen, err := mobility.Preset(o.presetName)
		if err != nil {
			return nil, err
		}
		return gen.Generate(o.seed)
	case o.traceFile != "":
		return trace.ReadFile(o.traceFile)
	default:
		return o.custom, nil
	}
}

// Run executes the simulation and returns the aggregated result. A
// Simulation runs at most once.
func (s *Simulation) Run() (Result, error) {
	if s.ran {
		return Result{}, errors.New("freshcache: simulation already ran")
	}
	s.ran = true
	return s.eng.Run()
}

// CachingNodes returns the selected caching-node IDs (after Run).
func (s *Simulation) CachingNodes() []int {
	rt := s.eng.Runtime()
	if rt == nil {
		return nil
	}
	out := make([]int, len(rt.CachingNodes))
	for i, n := range rt.CachingNodes {
		out[i] = int(n)
	}
	return out
}

// DelayCDF returns, for each probe duration, the fraction of refresh
// deliveries that arrived within it (after Run).
func (s *Simulation) DelayCDF(probes ...time.Duration) []float64 {
	ps := make([]float64, len(probes))
	for i, p := range probes {
		ps[i] = p.Seconds()
	}
	return s.eng.Collector().DelayCDF(ps)
}

// FirstDeliveryOnTimeRatio returns the fraction of (item, version, caching
// node) triples whose first delivery met the freshness window (after Run)
// — the quantity the probabilistic-replication analysis bounds from below
// by the configured requirement.
func (s *Simulation) FirstDeliveryOnTimeRatio() float64 {
	return s.eng.Collector().FirstDeliveryOnTimeRatio()
}

// ContactsDispatched returns how many trace contacts the network fired
// during the run (after Run), warm-up included; contacts suppressed by
// churn are not counted. Only contacts after warm-up reach the
// engine/contacts counter, so this count is the larger one. Of those, the
// refresh schemes get only the contacts with a caching node or an item
// source at one end, unless query delegation is on; epidemic and spray get
// them all. The timeline's contacts series samples the same count.
func (s *Simulation) ContactsDispatched() int {
	return s.eng.ContactsDispatched()
}
