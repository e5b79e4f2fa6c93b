package expt

import (
	"math"

	"freshcache/internal/cache"
	"freshcache/internal/centrality"
	"freshcache/internal/core"
	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
	"freshcache/internal/network"
)

// The extension experiments (E11…E18 and E20) go beyond the paper's
// evaluation: robustness to churn and message loss, the cost of realistic
// (distributed) contact-rate knowledge, the extended baseline panel, drift,
// placement, capacity, the analysis itself, delegation and fan-out. Most
// run each point over several seeds and report mean ± 95% CI, since
// failure injection adds variance.

// replicas is the number of seeds per point in the extension experiments,
// unless overridden by Options.Replicates.
func replicas(opts Options) int {
	if opts.Replicates > 0 {
		return opts.Replicates
	}
	if opts.Quick {
		return 2
	}
	return 3
}

// extSweep builds an extension-experiment sweep on the ext-community
// trace: same grid mechanics as Options.sweep but with the replicate
// default raised to replicas(opts).
func extSweep(opts Options, id string, points int, schemes []string) Sweep {
	sw := opts.sweep(id, []string{"ext-community"}, points, schemes)
	sw.Replicates = replicas(opts)
	return sw
}

// extTrace is the trace source of the extension experiments: a mid-size
// community trace, smaller than the presets so multi-seed sweeps stay
// fast, but structurally identical.
var extTrace = generated(&mobility.Community{
	TraceName: "ext-community", N: 40, Duration: 12 * mobility.Day, Communities: 4,
	IntraRate: 8.0 / mobility.Day, InterRate: 1.0 / mobility.Day, RateShape: 0.8,
	InterPairFraction: 0.7, HubFraction: 0.1, HubBoost: 3, MeanContactDur: 180,
})

// extScenario builds the scenario the extension experiments run on
// extTrace.
func extScenario(seed int64) Scenario {
	return Scenario{
		TracePreset:     "ext-community",
		NumItems:        3,
		RefreshInterval: 4 * mobility.Hour,
		NumCachingNodes: 6,
		QueryRate:       1.0 / (2 * mobility.Hour),
		Seed:            seed,
	}
}

func runE11(opts Options) ([]*Table, error) {
	schemes := []string{"direct", "hierarchical", "epidemic"}
	const hier = 1 // index of "hierarchical" in the scheme axis

	type churnPoint struct {
		duty     float64
		up, down float64
	}
	points := []churnPoint{
		{1.0, 0, 0},
		{0.75, 18 * mobility.Hour, 6 * mobility.Hour},
		{0.5, 6 * mobility.Hour, 6 * mobility.Hour},
		{0.25, 2 * mobility.Hour, 6 * mobility.Hour},
	}
	if opts.Quick {
		points = points[:2]
	}
	churnRes, err := extSweep(opts, "E11-churn", len(points), schemes).Run(func(c Cell) ([]float64, error) {
		p := points[c.Point]
		return runCell(opts, c, extTrace, extScenario(c.Seed), func(cfg *core.Config) {
			if p.up > 0 {
				cfg.Churn = network.ChurnConfig{MeanUp: p.up, MeanDown: p.down}
			}
		}, freshnessOf)
	})
	if err != nil {
		return nil, err
	}
	churnTable := &Table{
		ID: "E11", Title: "Freshness under node churn (duty cycle sweep, mean ± CI95 over seeds)",
		Header: []string{"dutyCycle", "direct", "hierarchical", "epidemic", "hierCI95"},
	}
	for pt, p := range points {
		row := []any{p.duty}
		for si := range schemes {
			row = append(row, churnRes.Mean(0, pt, si, 0))
		}
		row = append(row, churnRes.CI95(0, pt, hier, 0))
		churnTable.AddRow(row...)
	}

	drops := []float64{0, 0.1, 0.3, 0.5}
	if opts.Quick {
		drops = drops[:2]
	}
	lossRes, err := extSweep(opts, "E11-loss", len(drops), schemes).Run(func(c Cell) ([]float64, error) {
		return runCell(opts, c, extTrace, extScenario(c.Seed),
			func(cfg *core.Config) { cfg.DropProb = drops[c.Point] }, freshnessOf)
	})
	if err != nil {
		return nil, err
	}
	lossTable := &Table{
		ID: "E11", Title: "Freshness under message loss (mean ± CI95 over seeds)",
		Header: []string{"dropProb", "direct", "hierarchical", "epidemic", "hierCI95"},
	}
	for pt, drop := range drops {
		row := []any{drop}
		for si := range schemes {
			row = append(row, lossRes.Mean(0, pt, si, 0))
		}
		row = append(row, lossRes.CI95(0, pt, hier, 0))
		lossTable.AddRow(row...)
	}
	return []*Table{churnTable, lossTable}, nil
}

func runE12(opts Options) ([]*Table, error) {
	schemes := []string{"direct-rep", "hierarchical"}
	modes := []struct {
		label string
		k     core.KnowledgeMode
	}{
		{"oracle", core.KnowledgeOracle},
		{"distributed", core.KnowledgeDistributed},
	}
	res, err := extSweep(opts, "E12", len(modes), schemes).Run(func(c Cell) ([]float64, error) {
		return runCell(opts, c, extTrace, extScenario(c.Seed),
			func(cfg *core.Config) { cfg.Knowledge = modes[c.Point].k },
			func(r metrics.Result, _ *core.Engine) ([]float64, error) {
				return []float64{r.FreshnessRatio, r.TxPerVersion, r.OnTimeRatio}, nil
			})
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E12", Title: "Cost of realistic knowledge: oracle vs distributed rate estimates (mean over seeds)",
		Header: []string{"scheme", "knowledge", "freshness", "freshCI95", "tx/version", "onTime"},
	}
	for si, name := range schemes {
		for pt, mode := range modes {
			t.AddRow(name, mode.label, res.Mean(0, pt, si, 0), res.CI95(0, pt, si, 0),
				res.Mean(0, pt, si, 1), res.Mean(0, pt, si, 2))
		}
	}
	return []*Table{t}, nil
}

func runE13(opts Options) ([]*Table, error) {
	names := []string{"norefresh", "direct", "direct-rep", "spray", "random-rep", "hierarchical-norep", "hierarchical", "epidemic"}
	if opts.Quick {
		names = []string{"direct", "spray", "hierarchical"}
	}
	res, err := extSweep(opts, "E13", 1, names).Run(func(c Cell) ([]float64, error) {
		return runCell(opts, c, extTrace, extScenario(c.Seed), nil,
			func(r metrics.Result, _ *core.Engine) ([]float64, error) {
				return []float64{r.FreshnessRatio, r.ValidAccessRate, r.TxPerVersion, r.SourceTxShare}, nil
			})
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E13", Title: "Extended baseline panel (mean over seeds)",
		Header: []string{"scheme", "freshness", "freshCI95", "validAccess", "tx/version", "sourceTxShare"},
	}
	for si, name := range names {
		t.AddRow(name, res.Mean(0, 0, si, 0), res.CI95(0, 0, si, 0),
			res.Mean(0, 0, si, 1), res.Mean(0, 0, si, 2), res.Mean(0, 0, si, 3))
	}
	return []*Table{t}, nil
}

func runE14(opts Options) ([]*Table, error) {
	intervals := []float64{0, 4, 2, 1}
	if opts.Quick {
		intervals = intervals[:2]
	}
	sw := extSweep(opts, "E14", len(intervals), []string{"hierarchical"})
	sw.Presets = []string{"drift-community"}
	drift := generated(mobility.DriftingCommunity(40, 8*mobility.Day))
	res, err := sw.Run(func(c Cell) ([]float64, error) {
		sc := extScenario(c.Seed)
		sc.QueryRate = 0
		return runCell(opts, c, drift, sc, func(cfg *core.Config) {
			cfg.WarmupFraction = 0.25
			cfg.RebuildInterval = intervals[c.Point] * mobility.Day
		}, func(r metrics.Result, _ *core.Engine) ([]float64, error) {
			return []float64{r.FreshnessRatio, r.TxPerVersion}, nil
		})
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E14", Title: "Adapting to mobility drift: periodic hierarchy rebuild (mean ± CI95 over seeds)",
		Header: []string{"rebuildInterval(days)", "freshness", "freshCI95", "tx/version"},
	}
	for pt, days := range intervals {
		t.AddRow(days, res.Mean(0, pt, 0, 0), res.CI95(0, pt, 0, 0), res.Mean(0, pt, 0, 1))
	}
	return []*Table{t}, nil
}

func runE15(opts Options) ([]*Table, error) {
	schemes := []string{"direct", "hierarchical"}
	placements := []centrality.Placement{
		centrality.PlaceRandom, centrality.PlaceTopCentrality, centrality.PlaceGreedyCoverage,
	}
	res, err := extSweep(opts, "E15", len(placements), schemes).Run(func(c Cell) ([]float64, error) {
		return runCell(opts, c, extTrace, extScenario(c.Seed),
			func(cfg *core.Config) { cfg.Placement = placements[c.Point] },
			func(r metrics.Result, _ *core.Engine) ([]float64, error) {
				return []float64{r.FreshnessRatio, r.ValidAccessRate}, nil
			})
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E15", Title: "Caching-node placement policies (mean ± CI95 over seeds)",
		Header: []string{"placement", "scheme", "freshness", "freshCI95", "validAccess"},
	}
	for pt, p := range placements {
		for si, name := range schemes {
			t.AddRow(p.String(), name, res.Mean(0, pt, si, 0), res.CI95(0, pt, si, 0),
				res.Mean(0, pt, si, 1))
		}
	}
	return []*Table{t}, nil
}

func runE16(opts Options) ([]*Table, error) {
	caps := []int{2, 5, 10, 20}
	if opts.Quick {
		caps = caps[:2]
	}
	policies := []cache.Policy{cache.EvictLRU, cache.EvictLFU}
	// One point per (capacity, policy), policy innermost.
	res, err := extSweep(opts, "E16", len(caps)*len(policies), []string{"hierarchical"}).Run(func(c Cell) ([]float64, error) {
		sc := extScenario(c.Seed)
		sc.NumItems = 20
		return runCell(opts, c, extTrace, sc, func(cfg *core.Config) {
			cfg.CacheCapacity = caps[c.Point/len(policies)]
			cfg.CachePolicy = policies[c.Point%len(policies)]
		}, func(r metrics.Result, _ *core.Engine) ([]float64, error) {
			return []float64{r.FreshnessRatio, r.ValidAccessRate, r.AnsweredOK}, nil
		})
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E16", Title: "Impact of cache capacity and eviction policy (20 items, Zipf queries; mean over seeds)",
		Header: []string{"capacity(items)", "policy", "freshness", "validAccess", "answered"},
	}
	for pt := 0; pt < len(caps)*len(policies); pt++ {
		t.AddRow(caps[pt/len(policies)], policies[pt%len(policies)].String(),
			res.Mean(0, pt, 0, 0), res.Mean(0, pt, 0, 1), res.Mean(0, pt, 0, 2))
	}
	return []*Table{t}, nil
}

func runE17(opts Options) ([]*Table, error) {
	ps := presets(opts)
	res, err := opts.sweep("E17", ps, 1, []string{"hierarchical-bare"}).Run(func(c Cell) ([]float64, error) {
		sc := defaultScenario(c.Preset, c.Seed)
		// Long refresh interval relative to delays keeps delivery
		// censoring (the analysis conditions on delivery) small.
		sc.RefreshInterval = 24 * mobility.Hour
		sc.FreshnessWindow = 6 * mobility.Hour
		sc.Lifetime = 96 * mobility.Hour
		sc.QueryRate = 0
		return runCell(opts, c, presetTrace, sc,
			func(cfg *core.Config) { cfg.Scheme = core.NewHierarchicalBare() },
			func(_ metrics.Result, eng *core.Engine) ([]float64, error) {
				predicted, err := treeForecast(eng.Runtime())
				if err != nil {
					return nil, err
				}
				measured := eng.Collector().FirstDeliveryOnTimeRatio()
				return []float64{predicted, measured, math.Abs(predicted - measured)}, nil
			})
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E17", Title: "Analytical tree forecast vs measured on-time delivery (relay-free hierarchy)",
		Header: []string{"trace", "predictedOnTime", "measuredOnTime", "absGap"},
	}
	for pi, preset := range ps {
		t.AddRow(preset, res.Value(pi, 0, 0, 0), res.Value(pi, 0, 0, 1), res.Value(pi, 0, 0, 2))
	}
	return []*Table{t}, nil
}

// treeForecast is the analysis's on-time probability for a first delivery,
// averaged over the tree nodes of every item the run's relay-free
// hierarchy serves: each node's on-time probability within the freshness
// window, conditioned on delivery within the item's lifetime.
func treeForecast(rt *core.Runtime) (float64, error) {
	var sum float64
	count := 0
	for _, it := range rt.Catalog.Items() {
		// Reconstruct the (deterministic) tree the scheme built.
		tree, err := core.BuildTree(rt.Rates, it.Source, rt.CachingNodes, rt.MaxFanout)
		if err != nil {
			return 0, err
		}
		onTime, err := core.AnalyzeTree(tree, rt.Rates, it.FreshnessWindow)
		if err != nil {
			return 0, err
		}
		delivered, err := core.AnalyzeTree(tree, rt.Rates, it.Lifetime)
		if err != nil {
			return 0, err
		}
		for i := range onTime.Nodes {
			if d := delivered.Nodes[i].OnTime; d > 0 {
				sum += onTime.Nodes[i].OnTime / d
				count++
			}
		}
	}
	if count == 0 {
		return 0, nil
	}
	return sum / float64(count), nil
}

func runE18(opts Options) ([]*Table, error) {
	schemes := []string{"direct", "hierarchical"}
	relayCounts := []int{0, 1, 3}
	if opts.Quick {
		relayCounts = relayCounts[:2]
	}
	res, err := extSweep(opts, "E18", len(relayCounts), schemes).Run(func(c Cell) ([]float64, error) {
		return runCell(opts, c, extTrace, extScenario(c.Seed),
			func(cfg *core.Config) { cfg.QueryRelays = relayCounts[c.Point] },
			func(r metrics.Result, _ *core.Engine) ([]float64, error) {
				qtx := 0.0
				if r.Queries > 0 {
					qtx = float64(r.TransmissionsByKind["query"]) / float64(r.Queries)
				}
				return []float64{r.AnsweredOK, r.ValidAccessRate, r.MeanAccessDelaySec / mobility.Hour, qtx}, nil
			})
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E18", Title: "Query delegation: relayed access path (mean over seeds)",
		Header: []string{"scheme", "queryRelays", "answered", "validAccess", "accessDelay(h)", "queryTx/query"},
	}
	for si, name := range schemes {
		for pt, relays := range relayCounts {
			t.AddRow(name, relays, res.Mean(0, pt, si, 0), res.Mean(0, pt, si, 1),
				res.Mean(0, pt, si, 2), res.Mean(0, pt, si, 3))
		}
	}
	return []*Table{t}, nil
}

func runE19(opts Options) ([]*Table, error) {
	schemes := []string{"norefresh", "direct", "hierarchical", "epidemic"}
	var tables []*Table
	// The bucket count follows the trace's length, so each preset gets its
	// own grid, as in E2.
	for _, preset := range presets(opts) {
		sw := opts.sweep("E19", []string{preset}, 1, schemes)
		res, err := sw.Run(func(c Cell) ([]float64, error) {
			return runCell(opts, c, presetTrace, defaultScenario(c.Preset, c.Seed), nil,
				func(_ metrics.Result, eng *core.Engine) ([]float64, error) {
					return freshnessBuckets(eng.Runtime(), eng.Collector().Samples()), nil
				})
		})
		if err != nil {
			return nil, err
		}
		t := &Table{
			ID: "E19", Title: "Cache freshness ratio over time — " + preset,
			Header: append([]string{"t(days into measurement)"}, schemes...),
		}
		// Metric 0 is the bucket width, equal in every cell; metric b is
		// bucket b−1.
		width := math.NaN()
		for si := range schemes {
			if w := res.Mean(0, 0, si, 0); !math.IsNaN(w) {
				width = w
			}
		}
		for b := 1; b < res.Metrics(); b++ {
			row := []any{float64(b-1) * width}
			for si := range schemes {
				row = append(row, res.Value(0, 0, si, b))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// freshnessBuckets averages a run's freshness samples over consecutive
// buckets of the measurement phase: one day wide, or half a day when the
// phase is shorter than six days. The vector starts with the bucket width
// in days; an empty bucket reads 0.
func freshnessBuckets(rt *core.Runtime, samples []metrics.Sample) []float64 {
	bucket := mobility.Day
	if rt.Horizon-rt.Epoch < 6*mobility.Day {
		bucket = mobility.Hour * 12
	}
	out := []float64{bucket / mobility.Day}
	for start := rt.Epoch; start < rt.Horizon; start += bucket {
		var sum float64
		count := 0
		for _, smp := range samples {
			if smp.Time >= start && smp.Time < start+bucket {
				sum += smp.Ratio
				count++
			}
		}
		if count > 0 {
			sum /= float64(count)
		}
		out = append(out, sum)
	}
	return out
}

func runE20(opts Options) ([]*Table, error) {
	fanouts := []int{1, 2, 3, 5, 8}
	if opts.Quick {
		fanouts = fanouts[:2]
	}
	res, err := extSweep(opts, "E20", len(fanouts), []string{"hierarchical"}).Run(func(c Cell) ([]float64, error) {
		return runCell(opts, c, extTrace, extScenario(c.Seed),
			func(cfg *core.Config) { cfg.MaxFanout = fanouts[c.Point] },
			func(r metrics.Result, _ *core.Engine) ([]float64, error) {
				return []float64{r.FreshnessRatio, r.TxPerVersion, r.SourceTxShare, r.SchemeStats["meanTreeDepth"]}, nil
			})
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E20", Title: "Hierarchy fan-out bound ablation (mean over seeds)",
		Header: []string{"maxFanout", "freshness", "freshCI95", "tx/version", "sourceTxShare", "meanTreeDepth"},
	}
	for pt, fanout := range fanouts {
		t.AddRow(fanout, res.Mean(0, pt, 0, 0), res.CI95(0, pt, 0, 0),
			res.Mean(0, pt, 0, 1), res.Mean(0, pt, 0, 2), res.Mean(0, pt, 0, 3))
	}
	return []*Table{t}, nil
}
