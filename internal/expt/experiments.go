package expt

import (
	"fmt"
	"sync"

	"freshcache/internal/core"
	"freshcache/internal/eventsim"
	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
	"freshcache/internal/obs"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// Options tunes an experiment run.
type Options struct {
	// Seed drives trace generation and workloads.
	Seed int64
	// Quick trims sweeps to a couple of points (used by the benchmark
	// harness and smoke tests); the full sweep reproduces the evaluation.
	Quick bool
	// Parallel bounds the sweep runner's worker pool; the effective pool
	// is min(GOMAXPROCS, Parallel), 0 meaning GOMAXPROCS. Results are
	// byte-identical regardless of the value.
	Parallel int
	// Replicates overrides the per-cell replicate count of every sweep
	// (0 = each experiment's default: 1 for the paper sweeps, 2–3 for the
	// variance-prone extension experiments). With more than one replicate,
	// swept tables report mean±stderr cells.
	Replicates int
	// Stats, when non-nil, keeps one row per simulation run under the
	// run's label; the CLI renders each experiment's footer and the
	// manifest's per-scheme roll-ups from it. One RunStats may serve every
	// experiment of a process, since labels start with the experiment ID.
	Stats *metrics.RunStats
	// Obs, when non-nil, collects per-run event traces and registry
	// totals (the `-obs` flag). Nil means observability off: the hot
	// paths then see nil traces/registries and record nothing.
	Obs *obs.Observer
	// Timings includes wall-clock timing columns in tables that have them
	// (E10 and E21). Off by default so the quick-suite output is
	// byte-identical across machines and worker counts with no carve-outs.
	Timings bool
	// Journal, when non-nil, is the shared per-cell checkpoint journal:
	// sweeps append completed cells and replay matching ones on resume.
	Journal *Journal
	// Ledger, when non-nil, accounts cell dispositions and collects the
	// failure roster across the run (manifest provenance and
	// the CLI's exit status are built from it).
	Ledger *Ledger
	// KeepGoing runs sweeps in degradation mode: cell failures no longer
	// abort the grid; failed cells become explicit NA table holes.
	KeepGoing bool
	// Costs, when non-nil, collects per-cell cost attribution (wall time,
	// single-worker alloc deltas, optional CPU profiles) across every
	// sweep for the cross-run results store.
	Costs *CellCosts
}

// sweep builds the worker-pool sweep for one experiment grid, threading
// the run options' seed, parallelism and replicate override through.
func (o Options) sweep(id string, presets []string, points int, schemes []string) Sweep {
	return Sweep{
		Experiment: id,
		Presets:    presets,
		Points:     points,
		Schemes:    schemes,
		Replicates: o.Replicates,
		Parallel:   o.Parallel,
		BaseSeed:   o.Seed,
		Journal:    o.Journal,
		Ledger:     o.Ledger,
		KeepGoing:  o.KeepGoing,
		Costs:      o.Costs,
	}
}

// cellLabel names one sweep cell's run trace. Labels are unique across a
// suite run (the grid coordinates are), which the observer's deterministic
// flush order relies on.
func cellLabel(c Cell) string {
	return fmt.Sprintf("%s/%s/p%02d/%s/r%d", c.Experiment, c.Preset, c.Point, c.Scheme, c.Replicate)
}

// runConfig is the one run function of the suite: it runs one labelled
// engine configuration with the options' observability attached. The run
// records into its own Recording; a successful run adds its totals to the
// shared registry, its result is recorded into Stats under the label and
// its recording committed. Failed runs add, record and commit nothing, so
// exports only carry completed cells.
func (o Options) runConfig(label string, cfg core.Config) (metrics.Result, *core.Engine, error) {
	rec := o.Obs.Open(label, cfg.Scheme.Name())
	cfg.Recording = rec
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return metrics.Result{}, nil, err
	}
	res, err := eng.Run()
	if err != nil {
		return metrics.Result{}, nil, err
	}
	o.Stats.Record(label, res)
	o.Obs.Commit(rec)
	return res, eng, nil
}

// Experiment is one reproducible unit of the evaluation: it regenerates
// the data behind one table or figure.
type Experiment struct {
	ID            string
	Title         string
	PaperAnalogue string
	Run           func(opts Options) ([]*Table, error)
}

// figureSchemes are the protocols shown in the figures, in reporting
// order. The ablation variants appear separately in E9.
func figureSchemes() []string {
	return []string{"norefresh", "direct", "hierarchical-norep", "hierarchical", "epidemic"}
}

// presets returns the evaluation traces, possibly trimmed by Quick.
func presets(opts Options) []string {
	if opts.Quick {
		return []string{"infocom-like"}
	}
	return []string{"reality-like", "infocom-like"}
}

// traceSource returns the trace a cell runs on and the trace's compiled
// contact timeline, both from the shared cache, so every cell of a trace
// replays one immutable copy.
type traceSource func(c Cell) (*trace.Trace, []eventsim.StaticEvent, error)

// presetTrace is the trace source of the cells on the mobility presets.
// It derives the trace seed once more from the cell's, so replicate r of
// every preset cell runs on the trace of seed
// TraceSeedFor(TraceSeedFor(base, r), 0). Dropping that second derivation
// would move every preset table and the repository benchmark's E2 digest,
// which pins it, so it waits for a change to the benchmark.
func presetTrace(c Cell) (*trace.Trace, []eventsim.StaticEvent, error) {
	return sharedTraces.Get(c.Preset, TraceSeedFor(c.TraceSeed, 0), func(seed int64) (*trace.Trace, error) {
		g, err := mobility.Preset(c.Preset)
		if err != nil {
			return nil, err
		}
		return g.Generate(seed)
	})
}

// generated returns the trace source of cells that run on g's traces at
// their own trace seed. The cache keys the traces by g's name, so two
// generators of one name must be configured alike.
func generated(g mobility.Generator) traceSource {
	return func(c Cell) (*trace.Trace, []eventsim.StaticEvent, error) {
		return sharedTraces.Get(g.Name(), c.TraceSeed, g.Generate)
	}
}

// reusePool recycles worker-local engine state (simulator storage, scheme
// scratch arenas, plan buffers) across the sweep cells a worker runs
// back-to-back. Cells finish extracting their metrics before the Reuse
// returns to the pool, so a recycled bundle never aliases a live run.
//
// A plain free list (not sync.Pool) on purpose: it never drops bundles on
// GC, so the allocation count of a sequential sweep is exactly one bundle
// — deterministic, which the CI bench gate relies on. The list never
// holds more bundles than the peak worker count.
var reusePool struct {
	mu   sync.Mutex
	free []*core.Reuse
}

func getReuse() *core.Reuse {
	reusePool.mu.Lock()
	defer reusePool.mu.Unlock()
	if n := len(reusePool.free); n > 0 {
		r := reusePool.free[n-1]
		reusePool.free = reusePool.free[:n-1]
		return r
	}
	return core.NewReuse()
}

func putReuse(r *core.Reuse) {
	reusePool.mu.Lock()
	defer reusePool.mu.Unlock()
	reusePool.free = append(reusePool.free, r)
}

// refreshSweep returns the refresh-interval sweep appropriate for a
// trace's density (the paper picks trace-appropriate ranges too).
func refreshSweep(preset string, quick bool) []float64 {
	var hours []float64
	switch preset {
	case "reality-like":
		hours = []float64{2, 4, 8, 16, 24}
	default: // infocom-like: a 4-day dense trace
		hours = []float64{1, 2, 4, 8}
	}
	if quick {
		hours = hours[:2]
	}
	out := make([]float64, len(hours))
	for i, h := range hours {
		out[i] = h * mobility.Hour
	}
	return out
}

// All returns the full experiment registry in ID order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Trace summary statistics", PaperAnalogue: "Table 1", Run: runE1},
		{ID: "E2", Title: "Cache freshness ratio vs refresh interval", PaperAnalogue: "freshness figure", Run: runE2},
		{ID: "E3", Title: "Validity of data access vs query rate", PaperAnalogue: "data-access figure", Run: runE3},
		{ID: "E4", Title: "Freshness vs number of caching nodes", PaperAnalogue: "caching-nodes figure", Run: runE4},
		{ID: "E5", Title: "Refresh overhead per generated version", PaperAnalogue: "overhead figure", Run: runE5},
		{ID: "E6", Title: "Refresh delay CDF", PaperAnalogue: "delay figure", Run: runE6},
		{ID: "E7", Title: "Probabilistic replication: analysis vs measurement", PaperAnalogue: "analysis validation", Run: runE7},
		{ID: "E8", Title: "Impact of the freshness requirement window", PaperAnalogue: "requirement figure", Run: runE8},
		{ID: "E9", Title: "Ablation: hierarchy and replication in isolation", PaperAnalogue: "design discussion", Run: runE9},
		{ID: "E10", Title: "Scalability with network size", PaperAnalogue: "methodology", Run: runE10},
		{ID: "E11", Title: "Robustness to churn and message loss", PaperAnalogue: "extension", Run: runE11},
		{ID: "E12", Title: "Oracle vs distributed rate knowledge", PaperAnalogue: "extension", Run: runE12},
		{ID: "E13", Title: "Extended baseline panel (spray, random relays)", PaperAnalogue: "extension", Run: runE13},
		{ID: "E14", Title: "Adapting to mobility drift via periodic rebuild", PaperAnalogue: "extension", Run: runE14},
		{ID: "E15", Title: "Caching-node placement policies", PaperAnalogue: "extension", Run: runE15},
		{ID: "E16", Title: "Impact of cache capacity", PaperAnalogue: "extension", Run: runE16},
		{ID: "E17", Title: "Analytical forecast vs measurement", PaperAnalogue: "analysis validation (k-hop)", Run: runE17},
		{ID: "E18", Title: "Query delegation: relayed data access", PaperAnalogue: "extension", Run: runE18},
		{ID: "E19", Title: "Cache freshness over time", PaperAnalogue: "freshness time-series figure", Run: runE19},
		{ID: "E20", Title: "Hierarchy fan-out ablation", PaperAnalogue: "design-choice ablation", Run: runE20},
		{ID: "E21", Title: "Large-N community trace through the full pipeline", PaperAnalogue: "scalability extension", Run: runE21},
	}
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("expt: unknown experiment %q", id)
}

func runE1(opts Options) ([]*Table, error) {
	t := &Table{
		ID: "E1", Title: "Trace summary statistics",
		Header: []string{"trace", "nodes", "hours", "contacts", "meetingPairs", "pairCoverage", "contacts/pair", "meanPairRate(1/day)", "meanContactDur(s)", "expFitKS"},
	}
	// Each row describes the trace that replicate 0 of the preset cells
	// runs on.
	for _, preset := range presets(opts) {
		tr, _, err := presetTrace(Cell{Preset: preset, TraceSeed: TraceSeedFor(opts.Seed, 0)})
		if err != nil {
			return nil, err
		}
		s := tr.ComputeStats()
		gaps := tr.InterContactGaps()
		ks, err := stats.ExpFitKS(gaps)
		if err != nil {
			return nil, err
		}
		t.AddRow(s.Name, s.Nodes, s.DurationHours, s.Contacts, s.MeetingPairs,
			s.PairCoverage, s.ContactsPerPair, s.MeanPairRate*mobility.Day, s.MeanContactDur, ks)
	}
	return []*Table{t}, nil
}

// runCell is the one cell body of every simulating experiment. It reads
// the cell's trace and compiled timeline from src, configures the engine
// from sc (whose Seed should be the cell's), lets tweak specialize the
// configuration, and runs the cell's scheme, unless tweak set one, on a
// pooled Reuse. extract reads the metric vector off the result and the
// engine before the Reuse returns to the pool.
func runCell(opts Options, c Cell, src traceSource, sc Scenario, tweak func(*core.Config),
	extract func(metrics.Result, *core.Engine) ([]float64, error)) ([]float64, error) {
	tr, tl, err := src(c)
	if err != nil {
		return nil, err
	}
	cfg, err := sc.config(tr)
	if err != nil {
		return nil, err
	}
	cfg.ContactTimeline = tl
	reuse := getReuse()
	defer putReuse(reuse)
	cfg.Reuse = reuse
	if tweak != nil {
		tweak(&cfg)
	}
	if cfg.Scheme == nil {
		if cfg.Scheme, err = core.SchemeByName(c.Scheme); err != nil {
			return nil, err
		}
	}
	res, eng, err := opts.runConfig(cellLabel(c), cfg)
	if err != nil {
		return nil, err
	}
	return extract(res, eng)
}

// freshnessOf is the extract of the experiments that tabulate freshness
// alone.
func freshnessOf(r metrics.Result, _ *core.Engine) ([]float64, error) {
	return []float64{r.FreshnessRatio}, nil
}

// countValue renders a count column: an integer for one replicate, and
// mean±stderr, or the NA hole, otherwise.
func countValue(res *SweepResult, preset, point, scheme, metric int) any {
	v := res.Value(preset, point, scheme, metric)
	if f, ok := v.(float64); ok {
		return int64(f)
	}
	return v
}

// schemeGrid renders one preset's slice of a sweep result as an
// (x, one metric per scheme) table.
func schemeGrid(id, title, xHeader string, xs []any, schemes []string, res *SweepResult, preset int) *Table {
	t := &Table{ID: id, Title: title, Header: append([]string{xHeader}, schemes...)}
	for pt, x := range xs {
		row := []any{x}
		for si := range schemes {
			row = append(row, res.Value(preset, pt, si, 0))
		}
		t.AddRow(row...)
	}
	return t
}

func runE2(opts Options) ([]*Table, error) {
	var tables []*Table
	// The refresh sweep is trace-specific, so each preset gets its own
	// worker-pool grid.
	for _, preset := range presets(opts) {
		rs := refreshSweep(preset, opts.Quick)
		sw := opts.sweep("E2", []string{preset}, len(rs), figureSchemes())
		res, err := sw.Run(func(c Cell) ([]float64, error) {
			sc := defaultScenario(c.Preset, c.Seed)
			sc.RefreshInterval = rs[c.Point]
			return runCell(opts, c, presetTrace, sc, nil, freshnessOf)
		})
		if err != nil {
			return nil, err
		}
		xs := make([]any, len(rs))
		for i, r := range rs {
			xs[i] = r / mobility.Hour
		}
		tables = append(tables, schemeGrid("E2", "Freshness ratio vs refresh interval — "+preset,
			"refresh(h)", xs, figureSchemes(), res, 0))
	}
	return tables, nil
}

func runE3(opts Options) ([]*Table, error) {
	ratesPerDay := []float64{1, 2, 4, 8}
	if opts.Quick {
		ratesPerDay = ratesPerDay[:2]
	}
	ps := presets(opts)
	sw := opts.sweep("E3", ps, len(ratesPerDay), figureSchemes())
	res, err := sw.Run(func(c Cell) ([]float64, error) {
		sc := defaultScenario(c.Preset, c.Seed)
		sc.QueryRate = ratesPerDay[c.Point] / mobility.Day
		// Data is useful for exactly one refresh interval, so the figure
		// isolates how well each scheme keeps the *current* version
		// available (the default 2×R lifetime saturates on the dense
		// trace).
		sc.Lifetime = sc.RefreshInterval
		return runCell(opts, c, presetTrace, sc, nil,
			func(r metrics.Result, _ *core.Engine) ([]float64, error) { return []float64{r.ValidAccessRate}, nil })
	})
	if err != nil {
		return nil, err
	}
	xs := make([]any, len(ratesPerDay))
	for i, q := range ratesPerDay {
		xs[i] = q
	}
	var tables []*Table
	for pi, preset := range ps {
		tables = append(tables, schemeGrid("E3", "Valid-access ratio vs per-node query rate — "+preset,
			"queries/day", xs, figureSchemes(), res, pi))
	}
	return tables, nil
}

func runE4(opts Options) ([]*Table, error) {
	ks := []int{2, 4, 8, 12, 16}
	if opts.Quick {
		ks = ks[:2]
	}
	ps := presets(opts)
	sw := opts.sweep("E4", ps, len(ks), figureSchemes())
	res, err := sw.Run(func(c Cell) ([]float64, error) {
		sc := defaultScenario(c.Preset, c.Seed)
		sc.NumCachingNodes = ks[c.Point]
		return runCell(opts, c, presetTrace, sc, nil, freshnessOf)
	})
	if err != nil {
		return nil, err
	}
	xs := make([]any, len(ks))
	for i, k := range ks {
		xs[i] = k
	}
	var tables []*Table
	for pi, preset := range ps {
		tables = append(tables, schemeGrid("E4", "Freshness ratio vs number of caching nodes — "+preset,
			"cachingNodes", xs, figureSchemes(), res, pi))
	}
	return tables, nil
}

func runE5(opts Options) ([]*Table, error) {
	ps, schemes := presets(opts), figureSchemes()
	res, err := opts.sweep("E5", ps, 1, schemes).Run(func(c Cell) ([]float64, error) {
		return runCell(opts, c, presetTrace, defaultScenario(c.Preset, c.Seed), nil,
			func(r metrics.Result, _ *core.Engine) ([]float64, error) {
				return []float64{r.TxPerVersion,
					float64(r.TransmissionsByKind["refresh"]), float64(r.TransmissionsByKind["relay"]),
					r.SourceTxShare, r.MaxNodeTxShare, r.LoadGini, r.FreshnessRatio}, nil
			})
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E5", Title: "Refresh overhead per generated version",
		Header: []string{"trace", "scheme", "tx/version", "refreshTx", "relayTx", "sourceTxShare", "maxNodeShare", "loadGini", "freshness"},
	}
	for pi, preset := range ps {
		for si, name := range schemes {
			t.AddRow(preset, name, res.Value(pi, 0, si, 0),
				countValue(res, pi, 0, si, 1), countValue(res, pi, 0, si, 2),
				res.Value(pi, 0, si, 3), res.Value(pi, 0, si, 4), res.Value(pi, 0, si, 5), res.Value(pi, 0, si, 6))
		}
	}
	return []*Table{t}, nil
}

func runE6(opts Options) ([]*Table, error) {
	schemes := []string{"direct", "hierarchical-norep", "hierarchical", "epidemic"}
	fractions := []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4}
	ps := presets(opts)
	res, err := opts.sweep("E6", ps, 1, schemes).Run(func(c Cell) ([]float64, error) {
		sc := defaultScenario(c.Preset, c.Seed)
		window := sc.withDefaults().FreshnessWindow
		probes := make([]float64, len(fractions))
		for i, f := range fractions {
			probes[i] = f * window
		}
		return runCell(opts, c, presetTrace, sc, nil, func(_ metrics.Result, eng *core.Engine) ([]float64, error) {
			return eng.Collector().DelayCDF(probes), nil
		})
	})
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for pi, preset := range ps {
		t := &Table{
			ID: "E6", Title: "Refresh delay CDF (delay in freshness windows) — " + preset,
			Header: append([]string{"delay/window"}, schemes...),
		}
		for fi, f := range fractions {
			row := []any{f}
			for si := range schemes {
				row = append(row, res.Value(pi, 0, si, fi))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runE7(opts Options) ([]*Table, error) {
	preqs := []float64{0.5, 0.7, 0.8, 0.9, 0.95}
	if opts.Quick {
		preqs = preqs[:2]
	}
	ps := presets(opts)
	sw := opts.sweep("E7", ps, len(preqs), []string{"hierarchical"})
	res, err := sw.Run(func(c Cell) ([]float64, error) {
		sc := defaultScenario(c.Preset, c.Seed)
		sc.PReq = preqs[c.Point]
		return runCell(opts, c, presetTrace, sc, nil, func(r metrics.Result, eng *core.Engine) ([]float64, error) {
			relayPerVer := 0.0
			if r.VersionsGenerated > 0 {
				relayPerVer = float64(r.TransmissionsByKind["relay"]) / float64(r.VersionsGenerated)
			}
			return []float64{r.SchemeStats["meanAchievedProb"], r.SchemeStats["satisfiedRatio"],
				eng.Collector().FirstDeliveryOnTimeRatio(), relayPerVer}, nil
		})
	})
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for pi, preset := range ps {
		t := &Table{
			ID: "E7", Title: "Replication analysis vs measured on-time delivery — " + preset,
			Header: []string{"pReq", "analyticMeanProb", "plansSatisfied", "measuredFirstOnTime", "relayTx/version"},
		}
		for pt, p := range preqs {
			t.AddRow(p, res.Value(pi, pt, 0, 0), res.Value(pi, pt, 0, 1),
				res.Value(pi, pt, 0, 2), res.Value(pi, pt, 0, 3))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runE8(opts Options) ([]*Table, error) {
	factors := []float64{0.5, 1, 2, 3}
	if opts.Quick {
		factors = factors[:2]
	}
	schemes := []string{"direct", "hierarchical", "epidemic"}
	ps := presets(opts)
	sw := opts.sweep("E8", ps, len(factors), schemes)
	res, err := sw.Run(func(c Cell) ([]float64, error) {
		sc := defaultScenario(c.Preset, c.Seed)
		sc.FreshnessWindow = factors[c.Point] * sc.RefreshInterval
		return runCell(opts, c, presetTrace, sc, nil,
			func(r metrics.Result, _ *core.Engine) ([]float64, error) { return []float64{r.OnTimeRatio}, nil })
	})
	if err != nil {
		return nil, err
	}
	xs := make([]any, len(factors))
	for i, f := range factors {
		xs[i] = f
	}
	var tables []*Table
	for pi, preset := range ps {
		tables = append(tables, schemeGrid("E8",
			"On-time delivery ratio vs freshness window (in refresh intervals) — "+preset,
			"window/R", xs, schemes, res, pi))
	}
	return tables, nil
}

func runE9(opts Options) ([]*Table, error) {
	schemes := []string{"direct", "direct-rep", "hierarchical-norep", "hierarchical"}
	ps := presets(opts)
	res, err := opts.sweep("E9", ps, 1, schemes).Run(func(c Cell) ([]float64, error) {
		return runCell(opts, c, presetTrace, defaultScenario(c.Preset, c.Seed), nil,
			func(r metrics.Result, _ *core.Engine) ([]float64, error) {
				return []float64{r.FreshnessRatio, r.TxPerVersion, r.SourceTxShare, r.MeanRefreshDelay / mobility.Hour}, nil
			})
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E9", Title: "Ablation: contribution of hierarchy and replication",
		Header: []string{"trace", "scheme", "freshness", "tx/version", "sourceTxShare", "meanDelay(h)"},
	}
	for pi, preset := range ps {
		for si, name := range schemes {
			t.AddRow(preset, name, res.Value(pi, 0, si, 0), res.Value(pi, 0, si, 1),
				res.Value(pi, 0, si, 2), res.Value(pi, 0, si, 3))
		}
	}
	return []*Table{t}, nil
}

// scaleCommunity is E10's community trace at n nodes.
func scaleCommunity(n int) mobility.Generator {
	return &mobility.Community{
		TraceName: fmt.Sprintf("scale-%d", n), N: n, Duration: 10 * mobility.Day,
		Communities: n / 12, IntraRate: 8.0 / mobility.Day, InterRate: 0.5 / mobility.Day,
		RateShape: 0.8, InterPairFraction: 0.3, HubFraction: 0.08, HubBoost: 3,
		MeanContactDur: 120,
	}
}

func runE10(opts Options) ([]*Table, error) {
	sizes := []int{50, 100, 200, 400}
	if opts.Quick {
		sizes = sizes[:2]
	}
	sw := opts.sweep("E10", []string{"scale-community"}, len(sizes), []string{"hierarchical"})
	res, err := sw.Run(func(c Cell) ([]float64, error) {
		return runCell(opts, c, generated(scaleCommunity(sizes[c.Point])), defaultScenario(c.Preset, c.Seed), nil,
			func(r metrics.Result, eng *core.Engine) ([]float64, error) {
				return []float64{float64(eng.ContactsDispatched()), float64(r.SimulatedEventCount),
					r.WallClockSeconds, r.FreshnessRatio, r.TxPerVersion}, nil
			})
	})
	if err != nil {
		return nil, err
	}
	// The wall-clock column is machine-dependent, so it is opt-in
	// (-timings); without it the quick-suite output is byte-identical
	// across machines and worker counts.
	header := []string{"nodes", "contacts", "events", "freshness", "tx/version"}
	if opts.Timings {
		header = []string{"nodes", "contacts", "events", "wallClock(s)", "freshness", "tx/version"}
	}
	t := &Table{
		ID: "E10", Title: "Scalability with network size (hierarchical scheme)",
		Header: header,
	}
	for pt, n := range sizes {
		row := []any{n, countValue(res, 0, pt, 0, 0), countValue(res, 0, pt, 0, 1)}
		if opts.Timings {
			row = append(row, res.Value(0, pt, 0, 2))
		}
		row = append(row, res.Value(0, pt, 0, 3), res.Value(0, pt, 0, 4))
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}
