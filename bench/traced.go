package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"freshcache/internal/cache"
	"freshcache/internal/centrality"
	"freshcache/internal/core"
	"freshcache/internal/eventsim"
	"freshcache/internal/expt"
	"freshcache/internal/metrics"
	"freshcache/internal/network"
	"freshcache/internal/trace"
)

// The traced invocation times each run from the outside: a decorator
// around the core.Scheme marks the phase boundaries, and
// runtime.ReadMemStats runs only at those boundaries, never per contact.

// spans is one run's phase split. start and end bracket
// Scenario.RunOnTrace; Init marks the end of warmup.
type spans struct {
	start, initStart, initEnd, end time.Time
	m0, mInitStart, mInitEnd, mEnd uint64 // cumulative heap allocations
	gen, contact                   time.Duration
	genCalls, contactCalls         int
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// run executes one scenario with the scheme wrapped in the decorator.
func (sp *spans) run(sc expt.Scenario, scheme core.Scheme, tr *trace.Trace) (metrics.Result, error) {
	// The clock brackets the allocation reads: ReadMemStats stops the
	// world and may wait out a GC phase, and that time belongs to the run.
	sp.start = time.Now()
	sp.m0 = mallocs()
	res, _, err := sc.RunOnTrace(&timedScheme{Scheme: scheme, sp: sp}, tr)
	sp.mEnd = mallocs()
	sp.end = time.Now()
	if err == nil && sp.initEnd.IsZero() {
		err = fmt.Errorf("scheme %s was never initialized", scheme.Name())
	}
	return res, err
}

// timedScheme forwards every call to the wrapped scheme, timing it. It
// also forwards core.StatsReporter, so a traced Result equals an untraced
// one, SchemeStats included.
type timedScheme struct {
	core.Scheme
	sp *spans
}

func (s *timedScheme) Init(rt *core.Runtime) error {
	s.sp.mInitStart = mallocs()
	s.sp.initStart = time.Now()
	err := s.Scheme.Init(rt)
	s.sp.initEnd = time.Now()
	s.sp.mInitEnd = mallocs()
	return err
}

func (s *timedScheme) OnGenerate(it cache.Item, version int, now float64) {
	t := time.Now()
	s.Scheme.OnGenerate(it, version, now)
	s.sp.gen += time.Since(t)
	s.sp.genCalls++
}

func (s *timedScheme) OnContact(c *network.Contact) {
	t := time.Now()
	s.Scheme.OnContact(c)
	s.sp.contact += time.Since(t)
	s.sp.contactCalls++
}

func (s *timedScheme) SchemeStats() map[string]float64 {
	if sr, ok := s.Scheme.(core.StatsReporter); ok {
		return sr.SchemeStats()
	}
	return nil
}

// split is a pass's spans summed over its runs. cellWall is the same runs
// timed by expt.CellCosts around each whole cell, the reference the spans
// reconcile against.
type split struct {
	warmup, init, gen, contact, other, obs  float64
	warmupAllocs, initAllocs, measureAllocs float64
	genCalls, contactCalls                  float64
	cellWall                                float64
}

func (p *split) add(sp *spans, obs time.Duration, cellWall float64) {
	measure := sp.end.Sub(sp.initEnd)
	p.warmup += sp.initStart.Sub(sp.start).Seconds()
	p.init += sp.initEnd.Sub(sp.initStart).Seconds()
	p.gen += sp.gen.Seconds()
	p.contact += sp.contact.Seconds()
	p.other += (measure - sp.gen - sp.contact).Seconds()
	p.obs += obs.Seconds()
	p.cellWall += cellWall
	p.warmupAllocs += float64(sp.mInitStart - sp.m0)
	p.initAllocs += float64(sp.mInitEnd - sp.mInitStart)
	p.measureAllocs += float64(sp.mEnd - sp.mInitEnd)
	p.genCalls += float64(sp.genCalls)
	p.contactCalls += float64(sp.contactCalls)
}

// total is the sum of the spans: the whole run plus a recorded run's obs
// work around it.
func (p split) total() float64 {
	return p.warmup + p.init + p.gen + p.contact + p.other + p.obs
}

// pass runs every run once through an expt.Sweep on `workers` workers,
// with expt.CellCosts attached. With traced set the runs go through the
// timing decorator, and the returned split sums their spans.
type passResult struct {
	wall  float64
	outs  []runOut
	cells []float64 // per-cell wall seconds from expt.CellCosts
	split split
}

func pass(w *workload, seed int64, runs []simRun, workers int, traced bool) (passResult, error) {
	reuses := make(chan *core.Reuse, workers)
	for i := 0; i < workers; i++ {
		var r *core.Reuse
		if w.reuse {
			r = core.NewReuse()
		}
		reuses <- r
	}
	outs := make([]runOut, len(runs))
	sps := make([]spans, len(runs))
	costs := expt.NewCellCosts(0, false)
	sw := expt.Sweep{
		Experiment: w.name, Presets: []string{w.name}, Points: len(runs),
		Parallel: workers, BaseSeed: seed, Costs: costs,
	}
	start := time.Now()
	_, err := sw.Run(func(c expt.Cell) ([]float64, error) {
		reuse := <-reuses
		defer func() { reuses <- reuse }()
		var sp *spans
		if traced {
			sp = &sps[c.Point]
		}
		out, err := runs[c.Point].exec(reuse, sp)
		outs[c.Point] = out
		return []float64{0}, err
	})
	if err != nil {
		return passResult{}, err
	}
	pr := passResult{wall: time.Since(start).Seconds(), outs: outs}
	for _, c := range costs.Cells() {
		pr.cells = append(pr.cells, c.WallSeconds)
	}
	if traced {
		for i := range sps {
			pr.split.add(&sps[i], outs[i].obsTime, pr.cells[i])
		}
	}
	return pr, nil
}

// measureTraced is the traced invocation: the per-layer metrics. It
// alternates an untraced and a traced pass over the workload's runs, one
// run at a time so that allocation deltas attribute to one run, for two
// thirds of the budget, then runs the layer probes on the same inputs.
func measureTraced(w *workload, seed int64, budget time.Duration) (*report, error) {
	rep := newReport()
	start := time.Now()
	ins, setupS, err := setupPhase(w, seed)
	if err != nil {
		return nil, err
	}
	runs := w.runs(seed, ins)

	var plain, traced []passResult
	var busy []float64
	var ref string
	for len(traced) == 0 || time.Since(start) < budget*2/3 {
		p, err := pass(w, seed, runs, 1, false)
		if err != nil {
			return nil, fmt.Errorf("untraced pass: %w", err)
		}
		t, err := pass(w, seed, runs, 1, true)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		rep.attempted++
		pd, err := digestOuts(p.outs)
		if err != nil {
			return nil, err
		}
		td, err := digestOuts(t.outs)
		if err != nil {
			return nil, err
		}
		if ref == "" {
			ref = pd
			rep.checkGolden(seed, w.name, pd)
		}
		if pd != ref || td != ref {
			rep.failed++
			rep.fail("pass %d: untraced digest %s, traced %s, first %s", rep.attempted, pd, td, ref)
		}
		plain, traced = append(plain, p), append(traced, t)
		// busy_frac is measured at the workload's own worker count.
		if w.workers > 1 {
			if p, err = pass(w, seed, runs, w.workers, false); err != nil {
				return nil, fmt.Errorf("pass at %d workers: %w", w.workers, err)
			}
		}
		busy = append(busy, sum(p.cells)/(p.wall*float64(w.workers)))
	}

	get := func(ps []passResult, f func(passResult) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	sp := func(f func(split) float64) float64 {
		return get(traced, func(p passResult) float64 { return f(p.split) })
	}
	rep.note("samples", "%d untraced and %d traced passes of %d simulation runs", len(plain), len(traced), len(runs))
	rep.add("engine.warmup_s", sp(func(s split) float64 { return s.warmup }), "s")
	rep.add("engine.warmup_allocs", sp(func(s split) float64 { return s.warmupAllocs }), "count")
	rep.add("scheme.init_s", sp(func(s split) float64 { return s.init }), "s")
	rep.add("scheme.init_allocs", sp(func(s split) float64 { return s.initAllocs }), "count")
	rep.add("scheme.on_generate_s", sp(func(s split) float64 { return s.gen }), "s")
	rep.add("scheme.on_generate_calls", sp(func(s split) float64 { return s.genCalls }), "count")
	rep.add("scheme.on_contact_s", sp(func(s split) float64 { return s.contact }), "s")
	rep.add("scheme.on_contact_calls", sp(func(s split) float64 { return s.contactCalls }), "count")
	rep.add("scheme.on_contact_ns_per_call", sp(func(s split) float64 { return s.contact / s.contactCalls * 1e9 }), "ns")
	rep.add("engine.measure_other_s", sp(func(s split) float64 { return s.other }), "s")
	rep.add("engine.measure_allocs", sp(func(s split) float64 { return s.measureAllocs }), "count")
	// The sweep runner times each whole cell on its own clock; whatever of
	// a cell the spans miss shows up as the gap.
	rep.add("trace.reconcile_err_frac", sp(func(s split) float64 { return math.Abs(s.total()-s.cellWall) / s.cellWall }), "ratio")
	rep.add("trace.overhead_frac",
		get(traced, func(p passResult) float64 { return p.wall })/get(plain, func(p passResult) float64 { return p.wall })-1, "ratio")

	rep.add("mobility.generate_s", setupS[1], "s")
	rep.add("network.compile_s", setupS[2], "s")
	pr, err := probe(runs, ins)
	if err != nil {
		return nil, err
	}
	rep.add("network.dispatch_ns_per_contact", pr.dispatchNs, "ns")
	rep.add("centrality.estimate_s", pr.estimate, "s")
	rep.add("centrality.select_s", pr.sel, "s")
	rep.add("core.build_tree_s", pr.tree, "s")
	rep.add("core.plan_replication_s", pr.plan, "s")
	rep.add("core.plan_replication_calls", pr.planCalls, "count")

	var c struct{ events, tx, queries, answered, plans, satisfied, fresh, onTime, txPerVersion float64 }
	for _, o := range plain[0].outs {
		r := o.Result
		c.fresh += r.FreshnessRatio
		c.onTime += r.OnTimeRatio
		c.txPerVersion += r.TxPerVersion
		c.events += float64(r.SimulatedEventCount)
		c.tx += float64(r.Transmissions)
		c.queries += float64(r.Queries)
		c.answered += float64(r.Answered)
		c.plans += r.SchemeStats["plansTotal"]
		c.satisfied += r.SchemeStats["plansSatisfied"]
	}
	rep.add("eventsim.events", c.events, "count")
	rep.add("network.transmissions", c.tx, "count")
	rep.add("cache.queries", c.queries, "count")
	rep.add("cache.answered_frac", c.answered/c.queries, "ratio")
	rep.add("core.plans_satisfied_frac", c.satisfied/c.plans, "ratio")
	// The simulated outcome, as a mean over the runs. The output check pins
	// it exactly; these say what it is.
	n := float64(len(runs))
	rep.add("cache.freshness_ratio", c.fresh/n, "ratio")
	rep.add("core.on_time_ratio", c.onTime/n, "ratio")
	rep.add("network.tx_per_version", c.txPerVersion/n, "ratio")

	ob, err := obsProbe(runs)
	if err != nil {
		return nil, err
	}
	rep.add("obs.events_emitted", float64(ob.EventsSeen), "count")
	rep.add("obs.spans", float64(ob.Spans), "count")
	rep.add("obs.timeline_points", float64(ob.Points), "count")
	rep.add("obs.export_s", ob.exportTime.Seconds(), "s")

	var cells []float64
	for _, p := range plain {
		cells = append(cells, p.cells...)
	}
	rep.add("expt.cell_p50_s", median(cells), "s")
	rep.add("expt.busy_frac", median(busy), "ratio")
	return rep, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// probeReps is how many times each layer probe repeats; probes report the
// median repetition.
const probeReps = 3

type probes struct {
	dispatchNs, estimate, sel, tree, plan, planCalls float64
}

// probe times the layers under the runs on the runs' own inputs, each
// distinct input, caching-node set and refresh interval once per
// repetition: bare contact dispatch, rate estimation over the warmup,
// caching-node selection, tree building and replication planning over
// every tree edge.
func probe(runs []simRun, ins []*input) (probes, error) {
	var reps []probes
	for i := 0; i < probeReps; i++ {
		var p probes
		var contacts int
		for _, in := range ins {
			d, err := dispatch(in)
			if err != nil {
				return p, err
			}
			p.dispatchNs += float64(d.Nanoseconds())
			contacts += len(in.tr.Contacts)
		}
		p.dispatchNs /= float64(contacts)

		type treeKey struct {
			in *input
			k  int
		}
		type planKey struct {
			treeKey
			r float64
		}
		trees := map[treeKey][]*core.Tree{}
		rates := map[*input]centrality.RateStore{}
		planned := map[planKey]bool{}
		for _, r := range runs {
			sc := r.sc
			tk := treeKey{r.in, sc.NumCachingNodes}
			if _, ok := rates[r.in]; !ok {
				t := time.Now()
				rs, err := estimate(r.in.tr)
				if err != nil {
					return p, err
				}
				p.estimate += time.Since(t).Seconds()
				rates[r.in] = rs
			}
			rs := rates[r.in]
			if _, ok := trees[tk]; !ok {
				exclude := map[trace.NodeID]bool{}
				for s := 0; s < sc.NumItems; s++ {
					exclude[trace.NodeID(s)] = true
				}
				t := time.Now()
				caching, err := centrality.Select(centrality.PlaceGreedyCoverage, rs, 6*3600, sc.NumCachingNodes, exclude, sc.Seed)
				if err != nil {
					return p, err
				}
				p.sel += time.Since(t).Seconds()
				t = time.Now()
				for s := 0; s < sc.NumItems; s++ {
					tree, err := core.BuildTree(rs, trace.NodeID(s), caching, 3)
					if err != nil {
						return p, err
					}
					trees[tk] = append(trees[tk], tree)
				}
				p.tree += time.Since(t).Seconds()
			}
			pk := planKey{tk, sc.RefreshInterval}
			if planned[pk] {
				continue
			}
			planned[pk] = true
			all := make([]trace.NodeID, r.in.tr.N)
			for i := range all {
				all[i] = trace.NodeID(i)
			}
			t := time.Now()
			for _, tree := range trees[tk] {
				for child, parent := range tree.Parent {
					// A version's whole freshness window is the budget of
					// the first hop; the default window is one refresh
					// interval and the default p_req 0.9.
					if _, err := core.PlanReplication(rs, parent, child, all, sc.RefreshInterval, 0.9, 5); err != nil {
						return p, err
					}
					p.planCalls++
				}
			}
			p.plan += time.Since(t).Seconds()
		}
		reps = append(reps, p)
	}
	pick := func(f func(probes) float64) float64 {
		xs := make([]float64, len(reps))
		for i, p := range reps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	return probes{
		dispatchNs: pick(func(p probes) float64 { return p.dispatchNs }),
		estimate:   pick(func(p probes) float64 { return p.estimate }),
		sel:        pick(func(p probes) float64 { return p.sel }),
		tree:       pick(func(p probes) float64 { return p.tree }),
		plan:       pick(func(p probes) float64 { return p.plan }),
		planCalls:  reps[0].planCalls,
	}, nil
}

// dispatch replays the compiled timeline through a bare network.Net to a
// no-op handler: the event-dispatch floor under every run.
func dispatch(in *input) (time.Duration, error) {
	sim := eventsim.New()
	n, err := network.New(sim, in.tr, network.Config{})
	if err != nil {
		return 0, err
	}
	n.Attach(network.HandlerFunc(func(*network.Contact) {}))
	if err := n.ScheduleCompiled(in.tl); err != nil {
		return 0, err
	}
	t := time.Now()
	if _, err := sim.Run(in.tr.Duration); err != nil {
		return 0, err
	}
	d := time.Since(t)
	if got := n.ContactsDispatched(); got != len(in.tr.Contacts) {
		return 0, fmt.Errorf("dispatch probe: %d of %d contacts", got, len(in.tr.Contacts))
	}
	return d, nil
}

// estimate observes the warmup contacts (the engine's default 30% of the
// trace) and converts them to rates, as the engine does at the epoch.
func estimate(tr *trace.Trace) (centrality.RateStore, error) {
	epoch := tr.Duration * 0.3
	est, err := centrality.NewEstimator(tr.N, 0)
	if err != nil {
		return nil, err
	}
	for _, c := range tr.Contacts {
		if c.Start > epoch {
			break
		}
		est.Observe(c.A, c.B)
	}
	return est.Rates(epoch)
}

// obsProbe records the workload's first hierarchical run with every
// recording on and exports it: one run of reality-obs's unit of work, and
// a probe of the same work on the other workloads' inputs.
func obsProbe(runs []simRun) (runOut, error) {
	r := runs[0]
	for _, x := range runs {
		if x.scheme == "hierarchical" {
			r = x
			break
		}
	}
	r.record = true
	var last runOut
	var times []float64
	for i := 0; i < probeReps; i++ {
		out, err := r.exec(nil, nil)
		if err != nil {
			return runOut{}, fmt.Errorf("obs probe: %w", err)
		}
		times = append(times, out.exportTime.Seconds())
		last = out
	}
	last.exportTime = time.Duration(median(times) * float64(time.Second))
	return last, nil
}
