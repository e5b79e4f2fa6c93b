package expt

import (
	"freshcache/internal/cache"
	"freshcache/internal/centrality"
	"freshcache/internal/core"
	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
	"freshcache/internal/network"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// The extension experiments (E11…E13) go beyond the paper's evaluation:
// robustness to churn and message loss, the cost of realistic
// (distributed) contact-rate knowledge, and the extended baseline panel.
// They run each point over several seeds and report mean ± 95% CI, since
// failure injection adds variance. The sweep-shaped ones run their cell
// grids on the worker-pool runner (sweep.go); E14 and E16, which drive
// custom engines, stay on the sequential meanCI helper and record each
// run like a sweep cell.

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

// extSweep builds an extension-experiment sweep: same grid mechanics as
// Options.sweep but with the replicate default raised to replicas(opts).
func extSweep(opts Options, id string, points int, schemes []string) Sweep {
	sw := opts.sweep(id, []string{"ext-community"}, points, schemes)
	sw.Replicates = replicas(opts)
	return sw
}

// meanCI runs f over `n` replicates — rep is the replicate index, seed the
// consecutive protocol seed — and returns the sample mean and 95%
// confidence half-width of the extracted metric. Trace generation inside f
// should key on TraceSeedFor(base, rep), not the raw seed, so replicate
// trace streams do not alias runs launched with nearby base seeds.
func meanCI(n int, base int64, f func(rep int, seed int64) (float64, error)) (float64, float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v, err := f(i, base+int64(i))
		if err != nil {
			return 0, 0, err
		}
		xs = append(xs, v)
	}
	return stats.Mean(xs), stats.CI95(xs), nil
}

// extTrace returns the (cached) mid-size community trace the extension
// experiments run on.
func extTrace(seed int64) (*trace.Trace, error) {
	g := &mobility.Community{
		TraceName: "ext-community", N: 40, Duration: 12 * mobility.Day, Communities: 4,
		IntraRate: 8.0 / mobility.Day, InterRate: 1.0 / mobility.Day, RateShape: 0.8,
		InterPairFraction: 0.7, HubFraction: 0.1, HubBoost: 3, MeanContactDur: 180,
	}
	return sharedTraces.GetFunc("ext-community", seed, g.Generate)
}

// extScenario builds the mid-size community scenario used by the
// extension experiments (smaller than the presets so multi-seed sweeps
// stay fast, but structurally identical).
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

// runExtCell is the sweep-cell body of the ported extension experiments:
// the mid-size community scenario with config tweaks, on the trace from
// the shared cache keyed by the cell's TraceSeed (so all cells of one
// replicate are paired on a common trace), the protocol and workload
// randomness from the cell's derived Seed.
func runExtCell(opts Options, c Cell, mutate func(*core.Config)) (metrics.Result, error) {
	tr, err := extTrace(c.TraceSeed)
	if err != nil {
		return metrics.Result{}, err
	}
	sc := extScenario(c.Seed).withDefaults()
	cat, err := sc.buildCatalog()
	if err != nil {
		return metrics.Result{}, err
	}
	scheme, err := core.SchemeByName(c.Scheme)
	if err != nil {
		return metrics.Result{}, err
	}
	cfg := core.Config{
		Trace:           tr,
		Catalog:         cat,
		Scheme:          scheme,
		NumCachingNodes: sc.NumCachingNodes,
		PReq:            sc.PReq,
		Seed:            c.Seed,
		Workload:        cache.WorkloadConfig{QueryRate: sc.QueryRate, ZipfExponent: 1.0},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	res, _, err := opts.runConfig(cellLabel(c), cfg)
	return res, err
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
		res, err := runExtCell(opts, c, func(cfg *core.Config) {
			if p.up > 0 {
				cfg.Churn = network.ChurnConfig{MeanUp: p.up, MeanDown: p.down}
			}
		})
		if err != nil {
			return nil, err
		}
		return []float64{res.FreshnessRatio}, nil
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
		res, err := runExtCell(opts, c, func(cfg *core.Config) { cfg.DropProb = drops[c.Point] })
		if err != nil {
			return nil, err
		}
		return []float64{res.FreshnessRatio}, nil
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
		r, err := runExtCell(opts, c, func(cfg *core.Config) { cfg.Knowledge = modes[c.Point].k })
		if err != nil {
			return nil, err
		}
		return []float64{r.FreshnessRatio, r.TxPerVersion, r.OnTimeRatio}, nil
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
		r, err := runExtCell(opts, c, nil)
		if err != nil {
			return nil, err
		}
		return []float64{r.FreshnessRatio, r.ValidAccessRate, r.TxPerVersion, r.SourceTxShare}, nil
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
	n := replicas(opts)
	t := &Table{
		ID: "E14", Title: "Adapting to mobility drift: periodic hierarchy rebuild (mean ± CI95 over seeds)",
		Header: []string{"rebuildInterval(days)", "freshness", "freshCI95", "tx/version"},
	}
	intervals := []float64{0, 4, 2, 1}
	if opts.Quick {
		intervals = intervals[:2]
	}
	for pi, days := range intervals {
		var txSum float64
		mean, ci, err := meanCI(n, opts.Seed, func(rep int, seed int64) (float64, error) {
			tr, err := sharedTraces.GetFunc("drift-community", TraceSeedFor(opts.Seed, rep),
				mobility.DriftingCommunity(40, 8*mobility.Day).Generate)
			if err != nil {
				return 0, err
			}
			sc := extScenario(seed).withDefaults()
			cat, err := sc.buildCatalog()
			if err != nil {
				return 0, err
			}
			res, _, err := opts.runConfig(cellLabel(Cell{Experiment: "E14", Preset: "drift-community", Point: pi, Scheme: "hierarchical", Replicate: rep}), core.Config{
				Trace:           tr,
				Catalog:         cat,
				Scheme:          core.NewHierarchical(),
				NumCachingNodes: sc.NumCachingNodes,
				WarmupFraction:  0.25,
				RebuildInterval: days * mobility.Day,
				Seed:            seed,
			})
			if err != nil {
				return 0, err
			}
			txSum += res.TxPerVersion
			return res.FreshnessRatio, nil
		})
		if err != nil {
			return nil, err
		}
		label := days
		t.AddRow(label, mean, ci, txSum/float64(n))
	}
	return []*Table{t}, nil
}

func runE15(opts Options) ([]*Table, error) {
	schemes := []string{"direct", "hierarchical"}
	placements := []centrality.Placement{
		centrality.PlaceRandom, centrality.PlaceTopCentrality, centrality.PlaceGreedyCoverage,
	}
	res, err := extSweep(opts, "E15", len(placements), schemes).Run(func(c Cell) ([]float64, error) {
		r, err := runExtCell(opts, c, func(cfg *core.Config) { cfg.Placement = placements[c.Point] })
		if err != nil {
			return nil, err
		}
		return []float64{r.FreshnessRatio, r.ValidAccessRate}, nil
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
	n := replicas(opts)
	t := &Table{
		ID: "E16", Title: "Impact of cache capacity and eviction policy (20 items, Zipf queries; mean over seeds)",
		Header: []string{"capacity(items)", "policy", "freshness", "validAccess", "answered"},
	}
	caps := []int{2, 5, 10, 20}
	if opts.Quick {
		caps = caps[:2]
	}
	policies := []cache.Policy{cache.EvictLRU, cache.EvictLFU}
	for ci, capacity := range caps {
		for pi, policy := range policies {
			point := ci*len(policies) + pi
			var validSum, answeredSum float64
			mean, _, err := meanCI(n, opts.Seed, func(rep int, seed int64) (float64, error) {
				tr, err := extTrace(TraceSeedFor(opts.Seed, rep))
				if err != nil {
					return 0, err
				}
				sc := extScenario(seed)
				sc.NumItems = 20
				sc = sc.withDefaults()
				cat, err := sc.buildCatalog()
				if err != nil {
					return 0, err
				}
				res, _, err := opts.runConfig(cellLabel(Cell{Experiment: "E16", Preset: "ext-community", Point: point, Scheme: "hierarchical", Replicate: rep}), core.Config{
					Trace:           tr,
					Catalog:         cat,
					Scheme:          core.NewHierarchical(),
					NumCachingNodes: sc.NumCachingNodes,
					CacheCapacity:   capacity,
					CachePolicy:     policy,
					Seed:            seed,
					Workload:        cache.WorkloadConfig{QueryRate: sc.QueryRate, ZipfExponent: 1.0},
				})
				if err != nil {
					return 0, err
				}
				validSum += res.ValidAccessRate
				answeredSum += res.AnsweredOK
				return res.FreshnessRatio, nil
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(capacity, policy.String(), mean, validSum/float64(n), answeredSum/float64(n))
		}
	}
	return []*Table{t}, nil
}

func runE17(opts Options) ([]*Table, error) {
	t := &Table{
		ID: "E17", Title: "Analytical tree forecast vs measured on-time delivery (relay-free hierarchy)",
		Header: []string{"trace", "predictedOnTime", "measuredOnTime", "absGap"},
	}
	for _, preset := range presets(opts) {
		tr, err := genTrace(preset, opts.Seed)
		if err != nil {
			return nil, err
		}
		sc := defaultScenario(preset, opts.Seed)
		sc = sc.withDefaults()
		// Long refresh interval relative to delays keeps delivery
		// censoring (the analysis conditions on delivery) small.
		sc.RefreshInterval = 24 * mobility.Hour
		sc.FreshnessWindow = 6 * mobility.Hour
		sc.Lifetime = 96 * mobility.Hour
		sc.QueryRate = 0
		cat, err := sc.buildCatalog()
		if err != nil {
			return nil, err
		}
		_, eng, err := opts.runConfig(cellLabel(Cell{Experiment: "E17", Preset: preset, Scheme: "hierarchical-bare"}), core.Config{
			Trace:           tr,
			Catalog:         cat,
			Scheme:          core.NewHierarchicalBare(),
			NumCachingNodes: sc.NumCachingNodes,
			Seed:            opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		rt := eng.Runtime()

		var sum float64
		count := 0
		for _, it := range rt.Catalog.Items() {
			// Reconstruct the (deterministic) tree the scheme built.
			tree, err := core.BuildTree(rt.Rates, it.Source, rt.CachingNodes, rt.MaxFanout)
			if err != nil {
				return nil, err
			}
			onTime, err := core.AnalyzeTree(tree, rt.Rates, it.FreshnessWindow)
			if err != nil {
				return nil, err
			}
			delivered, err := core.AnalyzeTree(tree, rt.Rates, it.Lifetime)
			if err != nil {
				return nil, err
			}
			for i := range onTime.Nodes {
				if d := delivered.Nodes[i].OnTime; d > 0 {
					sum += onTime.Nodes[i].OnTime / d
					count++
				}
			}
		}
		predicted := 0.0
		if count > 0 {
			predicted = sum / float64(count)
		}
		measured := eng.Collector().FirstDeliveryOnTimeRatio()
		gap := predicted - measured
		if gap < 0 {
			gap = -gap
		}
		t.AddRow(preset, predicted, measured, gap)
	}
	return []*Table{t}, nil
}

func runE18(opts Options) ([]*Table, error) {
	schemes := []string{"direct", "hierarchical"}
	relayCounts := []int{0, 1, 3}
	if opts.Quick {
		relayCounts = relayCounts[:2]
	}
	res, err := extSweep(opts, "E18", len(relayCounts), schemes).Run(func(c Cell) ([]float64, error) {
		r, err := runExtCell(opts, c, func(cfg *core.Config) { cfg.QueryRelays = relayCounts[c.Point] })
		if err != nil {
			return nil, err
		}
		qtx := 0.0
		if r.Queries > 0 {
			qtx = float64(r.TransmissionsByKind["query"]) / float64(r.Queries)
		}
		return []float64{r.AnsweredOK, r.ValidAccessRate, r.MeanAccessDelaySec / mobility.Hour, qtx}, nil
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
	var tables []*Table
	presetsHere := presets(opts)
	for _, preset := range presetsHere {
		tr, err := genTrace(preset, opts.Seed)
		if err != nil {
			return nil, err
		}
		schemes := []string{"norefresh", "direct", "hierarchical", "epidemic"}
		t := &Table{
			ID: "E19", Title: "Cache freshness ratio over time — " + preset,
			Header: append([]string{"t(days into measurement)"}, schemes...),
		}
		// One run per scheme; re-bucket the freshness samples into a
		// shared day grid.
		type series struct {
			times  []float64
			ratios []float64
		}
		all := make([]series, len(schemes))
		var epoch float64
		for i, name := range schemes {
			sc := defaultScenario(preset, opts.Seed)
			scheme, err := core.SchemeByName(name)
			if err != nil {
				return nil, err
			}
			_, eng, err := opts.runScenario("E19/"+preset+"/"+name, sc, scheme, tr)
			if err != nil {
				return nil, err
			}
			epoch = eng.Runtime().Epoch
			for _, smp := range eng.Collector().Samples() {
				all[i].times = append(all[i].times, smp.Time)
				all[i].ratios = append(all[i].ratios, smp.Ratio)
			}
		}
		// Daily buckets over the measurement phase.
		horizon := tr.Duration
		bucket := mobility.Day
		if horizon-epoch < 6*mobility.Day {
			bucket = mobility.Hour * 12
		}
		for start := epoch; start < horizon; start += bucket {
			row := []any{(start - epoch) / mobility.Day}
			for i := range schemes {
				var sum float64
				count := 0
				for j, tt := range all[i].times {
					if tt >= start && tt < start+bucket {
						sum += all[i].ratios[j]
						count++
					}
				}
				if count > 0 {
					row = append(row, sum/float64(count))
				} else {
					row = append(row, 0.0)
				}
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runE20(opts Options) ([]*Table, error) {
	fanouts := []int{1, 2, 3, 5, 8}
	if opts.Quick {
		fanouts = fanouts[:2]
	}
	res, err := extSweep(opts, "E20", len(fanouts), []string{"hierarchical"}).Run(func(c Cell) ([]float64, error) {
		r, err := runExtCell(opts, c, func(cfg *core.Config) { cfg.MaxFanout = fanouts[c.Point] })
		if err != nil {
			return nil, err
		}
		return []float64{r.FreshnessRatio, r.TxPerVersion, r.SourceTxShare, r.SchemeStats["meanTreeDepth"]}, nil
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
