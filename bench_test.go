package freshcache

// The benchmark harness: one Benchmark per experiment of the reproduction
// suite (E1…E21 in DESIGN.md), each regenerating its table/figure data in
// Quick mode (trimmed sweeps), plus micro-benchmarks of the core
// analytical components. The full-sweep evaluation is regenerated by
// `go run ./cmd/experiments`.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"freshcache/internal/centrality"
	"freshcache/internal/core"
	"freshcache/internal/eventsim"
	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := RunExperiment(id, 42, true)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no output")
		}
	}
}

func BenchmarkE1TraceSummary(b *testing.B)         { benchExperiment(b, "E1") }
func BenchmarkE2FreshnessVsRefresh(b *testing.B)   { benchExperiment(b, "E2") }
func BenchmarkE3AccessVsQueryRate(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4FreshnessVsCaching(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE5Overhead(b *testing.B)             { benchExperiment(b, "E5") }
func BenchmarkE6DelayCDF(b *testing.B)             { benchExperiment(b, "E6") }
func BenchmarkE7AnalysisValidation(b *testing.B)   { benchExperiment(b, "E7") }
func BenchmarkE8FreshnessRequirement(b *testing.B) { benchExperiment(b, "E8") }
func BenchmarkE9Ablation(b *testing.B)             { benchExperiment(b, "E9") }
func BenchmarkE10Scalability(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11Robustness(b *testing.B)          { benchExperiment(b, "E11") }
func BenchmarkE12Knowledge(b *testing.B)           { benchExperiment(b, "E12") }
func BenchmarkE13BaselinePanel(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE14DriftRebuild(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15Placement(b *testing.B)           { benchExperiment(b, "E15") }
func BenchmarkE16CacheCapacity(b *testing.B)       { benchExperiment(b, "E16") }
func BenchmarkE17Forecast(b *testing.B)            { benchExperiment(b, "E17") }
func BenchmarkE18Delegation(b *testing.B)          { benchExperiment(b, "E18") }
func BenchmarkE19FreshnessOverTime(b *testing.B)   { benchExperiment(b, "E19") }
func BenchmarkE20FanoutAblation(b *testing.B)      { benchExperiment(b, "E20") }

// BenchmarkLargeN runs the quick large-N scenario (E21): O(contacts)
// trace generation and the sparse rate structures through the full
// pipeline.
func BenchmarkLargeN(b *testing.B) { benchExperiment(b, "E21") }

// BenchmarkSweepWorkers measures the deterministic sweep runner's scaling:
// the same E2 quick sweep at 1, 2, 4 and 8 workers. Tables are
// byte-identical across worker counts; only wall time changes. RunStats
// supplies the cells/s throughput metric.
func BenchmarkSweepWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// The pool is capped at min(GOMAXPROCS, Parallel); lift
			// GOMAXPROCS so the label matches the actual pool width even on
			// CPU-constrained machines.
			prev := runtime.GOMAXPROCS(max(workers, runtime.GOMAXPROCS(0)))
			defer runtime.GOMAXPROCS(prev)
			rs := metrics.NewRunStats()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				tables, err := RunExperimentOpts("E2", ExperimentOptions{
					Seed: 42, Quick: true, Parallel: workers, Stats: rs,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(tables) == 0 {
					b.Fatal("no output")
				}
			}
			elapsed := time.Since(start).Seconds()
			cells := 0
			for _, ru := range rs.SchemeRollups() {
				cells += ru.Runs
			}
			if elapsed > 0 {
				b.ReportMetric(float64(cells)/elapsed, "cells/s")
			}
		})
	}
}

// BenchmarkContactDispatch measures per-contact cost of the protocol hot
// path: one full run on the reality-like preset, normalized by dispatched
// contacts (reported as ns/contact). Run with -benchmem to see the
// per-run allocation count the alloc-regression tests pin per contact.
func BenchmarkContactDispatch(b *testing.B) {
	for _, scheme := range []struct {
		name string
		id   SchemeName
	}{
		{"direct", SchemeDirect},
		{"hierarchical", SchemeHierarchical},
	} {
		scheme := scheme
		b.Run(scheme.name, func(b *testing.B) {
			contacts := 0
			start := time.Now()
			for i := 0; i < b.N; i++ {
				sim, err := New(
					WithPreset("reality-like"),
					WithScheme(scheme.id),
					WithUniformItems(5, 4*time.Hour),
					WithCachingNodes(8),
					WithQueryWorkload(4, 1.0),
					WithSeed(42),
				)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(); err != nil {
					b.Fatal(err)
				}
				contacts += sim.ContactsDispatched()
			}
			if contacts > 0 {
				b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(contacts), "ns/contact")
			}
		})
	}
}

// BenchmarkSimulationRun measures one full end-to-end run of the paper's
// scheme on the infocom-like preset (the unit every sweep multiplies).
func BenchmarkSimulationRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim, err := New(
			WithPreset("infocom-like"),
			WithScheme(SchemeHierarchical),
			WithUniformItems(5, 2*time.Hour),
			WithCachingNodes(8),
			WithQueryWorkload(4, 1.0),
			WithSeed(int64(i)+1),
		)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures synthetic trace generation for the two
// evaluation presets.
func BenchmarkTraceGeneration(b *testing.B) {
	for _, preset := range Presets() {
		preset := preset
		b.Run(preset, func(b *testing.B) {
			gen, err := mobility.Preset(preset)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := gen.Generate(int64(i) + 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEventEngine measures raw future-event-list throughput.
func BenchmarkEventEngine(b *testing.B) {
	const events = 100000
	for i := 0; i < b.N; i++ {
		sim := eventsim.New()
		for j := 0; j < events; j++ {
			at := float64(j%1000) + float64(j)/events
			if err := sim.ScheduleAt(at, func(float64) {}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sim.Run(1e12); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkHierarchyBuild measures refresh-tree construction at realistic
// sizes (K caching nodes out of 100).
func BenchmarkHierarchyBuild(b *testing.B) {
	m := randomRates(b, 100, 0.5, 3600, 1)
	for _, k := range []int{8, 16, 32} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			caching := make([]trace.NodeID, k)
			for i := range caching {
				caching[i] = trace.NodeID(i + 1)
			}
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildTree(m, 0, caching, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicationPlanning measures one probabilistic-replication plan
// over 100 candidate relays.
func BenchmarkReplicationPlanning(b *testing.B) {
	rng := stats.NewRNG(2)
	pairs := map[[2]trace.NodeID]float64{{0, 1}: 1.0 / 86400}
	cands := make([]trace.NodeID, 100)
	for i := 0; i < 100; i++ {
		r := trace.NodeID(i + 2)
		cands[i] = r
		pairs[[2]trace.NodeID{0, r}] = stats.Exp(rng, 7200)
		pairs[[2]trace.NodeID{r, 1}] = stats.Exp(rng, 7200)
	}
	m, err := centrality.RatesFromPairs(102, pairs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanReplication(m, 0, 1, cands, 3600, 0.95, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachingNodeSelection measures the greedy coverage selection.
func BenchmarkCachingNodeSelection(b *testing.B) {
	m := randomRates(b, 100, 0.4, 7200, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := centrality.SelectCachingNodes(m, 6*3600, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// randomRates builds rates over n nodes in which each pair meets with
// probability frac, at a rate drawn from an exponential of the given mean.
func randomRates(b *testing.B, n int, frac, mean float64, seed int64) centrality.RateStore {
	b.Helper()
	rng := stats.NewRNG(seed)
	pairs := make(map[[2]trace.NodeID]float64)
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			if rng.Float64() < frac {
				pairs[[2]trace.NodeID{trace.NodeID(x), trace.NodeID(y)}] = stats.Exp(rng, mean)
			}
		}
	}
	m, err := centrality.RatesFromPairs(n, pairs)
	if err != nil {
		b.Fatal(err)
	}
	return m
}
