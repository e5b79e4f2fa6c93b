package expt

import (
	"fmt"

	"freshcache/internal/cache"
	"freshcache/internal/core"
	"freshcache/internal/eventsim"
	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
	"freshcache/internal/obs"
	"freshcache/internal/trace"
)

// Scenario is the standard simulation configuration the experiments sweep
// over: one trace preset, a catalog of periodically refreshed items, the
// caching-node budget and the query workload.
type Scenario struct {
	TracePreset     string // names the trace; RunOnTrace is handed the trace itself
	NumItems        int
	RefreshInterval float64
	FreshnessWindow float64 // defaults to RefreshInterval
	Lifetime        float64 // defaults to 2×RefreshInterval
	NumCachingNodes int
	QueryRate       float64 // per node (1/s); 0 disables queries
	PReq            float64 // defaults to 0.9
	Seed            int64

	// Obs and Metrics thread per-run observability into the engine (both
	// nil when -obs is off). Lineage and Timeline are the causal span tree
	// and the simulated-time telemetry sampler (nil when -lineage /
	// -timeline-tick are off); TimelineTick is the sampling period in
	// simulated seconds (<= 0 = engine default). RunOnTrace hands the
	// five to the engine as one obs.Recording.
	Obs          *obs.RunTrace
	Metrics      *obs.Registry
	Lineage      *obs.Lineage
	Timeline     *obs.Timeline
	TimelineTick float64

	// ContactTimeline is the pre-compiled contact timeline for the trace
	// handed to RunOnTrace (network.CompileTimeline); nil compiles on the
	// fly. Sweep cells take the TraceCache's shared copy instead.
	ContactTimeline []eventsim.StaticEvent
	// Reuse recycles worker-local engine state across consecutive runs
	// (see core.Reuse). Only set when the engine is not inspected after
	// the run's results have been extracted.
	Reuse *core.Reuse
}

// defaultScenario is the base point of every sweep, matching the paper
// family's setup: a handful of periodically refreshed items, K=8 caching
// nodes, per-node query rate of one query per 4 hours.
func defaultScenario(preset string, seed int64) Scenario {
	return Scenario{
		TracePreset:     preset,
		NumItems:        5,
		RefreshInterval: 4 * mobility.Hour,
		NumCachingNodes: 8,
		QueryRate:       1.0 / (4 * mobility.Hour),
		Seed:            seed,
	}
}

func (sc Scenario) withDefaults() Scenario {
	if sc.FreshnessWindow == 0 {
		sc.FreshnessWindow = sc.RefreshInterval
	}
	if sc.Lifetime == 0 {
		sc.Lifetime = 2 * sc.RefreshInterval
	}
	if sc.PReq == 0 {
		sc.PReq = 0.9
	}
	return sc
}

// buildCatalog assigns item sources to nodes 0..NumItems-1 (node IDs carry
// no structure in the generators, so this is an arbitrary deterministic
// assignment).
func (sc Scenario) buildCatalog() (*cache.Catalog, error) {
	sc = sc.withDefaults()
	items := make([]cache.Item, sc.NumItems)
	for i := range items {
		items[i] = cache.Item{
			ID:     cache.ItemID(i),
			Source: trace.NodeID(i),
			// Stagger publication within the cycle: real sources do not
			// all publish at the same instant, and aligning every
			// generation with the trace's midnight (where diurnal traces
			// have no contacts) would be a simulation artifact.
			Phase:           float64(i) * sc.RefreshInterval / float64(sc.NumItems),
			RefreshInterval: sc.RefreshInterval,
			FreshnessWindow: sc.FreshnessWindow,
			Lifetime:        sc.Lifetime,
			Size:            1,
		}
	}
	return cache.NewCatalog(items)
}

// config is the engine configuration the scenario describes on trace tr,
// every field but the scheme.
func (sc Scenario) config(tr *trace.Trace) (core.Config, error) {
	sc = sc.withDefaults()
	cat, err := sc.buildCatalog()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Trace:           tr,
		Catalog:         cat,
		NumCachingNodes: sc.NumCachingNodes,
		PReq:            sc.PReq,
		Seed:            sc.Seed,
		Recording: obs.Recording{
			Trace: sc.Obs, Metrics: sc.Metrics, Lineage: sc.Lineage,
			Timeline: sc.Timeline, TimelineTick: sc.TimelineTick,
		},
		ContactTimeline: sc.ContactTimeline,
		Reuse:           sc.Reuse,
	}
	if sc.QueryRate > 0 {
		cfg.Workload = cache.WorkloadConfig{QueryRate: sc.QueryRate, ZipfExponent: 1.0}
	}
	return cfg, nil
}

// RunOnTrace executes the scenario with the given scheme on a
// pre-generated trace (so sweeps over non-trace parameters reuse one
// trace, matching trace-driven methodology), returning the result and the
// engine (for raw collector access).
func (sc Scenario) RunOnTrace(scheme core.Scheme, tr *trace.Trace) (metrics.Result, *core.Engine, error) {
	cfg, err := sc.config(tr)
	if err != nil {
		return metrics.Result{}, nil, err
	}
	cfg.Scheme = scheme
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return metrics.Result{}, nil, err
	}
	res, err := eng.Run()
	if err != nil {
		return metrics.Result{}, nil, fmt.Errorf("expt: %s/%s: %w", scheme.Name(), tr.Name, err)
	}
	return res, eng, nil
}
