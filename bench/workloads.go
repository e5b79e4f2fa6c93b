package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"freshcache/internal/core"
	"freshcache/internal/eventsim"
	"freshcache/internal/expt"
	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
	"freshcache/internal/network"
	"freshcache/internal/obs"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// input is one generated trace and its compiled contact timeline, shared
// read-only by every run of a workload, with the seed it was generated from.
type input struct {
	tr   *trace.Trace
	tl   []eventsim.StaticEvent
	seed int64
}

// traceSpec names one trace a workload replays: its generator and seed.
type traceSpec struct {
	gen  mobility.Generator
	seed int64
}

// simRun is one simulation run: a scenario, a scheme and the input it
// replays. With record set, every obs recording is on and the run's
// exports are serialized, which is the reality-obs unit of work.
type simRun struct {
	sc     expt.Scenario
	scheme string
	in     *input
	record bool
}

// runOut is what one simRun produced: the engine's result and, for a
// recorded run, the size of each export.
type runOut struct {
	Result      metrics.Result
	EventsSeen  uint64  `json:",omitempty"`
	Spans       int     `json:",omitempty"`
	Points      int     `json:",omitempty"`
	ExportBytes []int64 `json:",omitempty"`
	// exportTime is the serialization alone; obsTime adds the set-up of
	// the collectors, the rest of the obs work outside the engine run.
	exportTime, obsTime time.Duration
}

// outcome is what one unit of work produced.
type outcome struct {
	digest string
	events uint64
	outs   []runOut // nil for the sweep, whose cells the bench cannot see
	tables []*expt.Table
}

// workload is one benchmark workload. Its unit of work runs back to back
// on one client; runs lists the simulation runs of one unit (for the sweep,
// a replica of its cells through the public API) and drives the traced
// passes and the per-layer probes.
type workload struct {
	name    string
	workers int  // goroutines the unit loads the machine with
	reuse   bool // runs recycle engine state across cells, as the sweep does
	traces  func(seed int64) []traceSpec
	runs    func(seed int64, ins []*input) []simRun
	// sweep, when set, is the timed unit in place of executing runs.
	sweep func(seed int64) (outcome, error)
}

// timelineTick is reality-obs's telemetry period in simulated seconds.
const timelineTick = 3600

// baseScenario is the paper-scale default point of every expt sweep: five
// items refreshed every 4 h, K=8 caching nodes, one query per 4 h per node.
func baseScenario(seed int64) expt.Scenario {
	return expt.Scenario{
		TracePreset:     "reality-like",
		NumItems:        5,
		RefreshInterval: 4 * mobility.Hour,
		NumCachingNodes: 8,
		QueryRate:       1.0 / (4 * mobility.Hour),
		Seed:            seed,
	}
}

// largeN is the E21 community generator at n nodes: a fixed community
// size and ~32 inter-community partners per node, so contacts grow as
// O(n) and every rate structure takes the sparse path.
func largeN(n int) mobility.Generator {
	return &mobility.Community{
		TraceName:         fmt.Sprintf("large-%d", n),
		N:                 n,
		Duration:          4 * mobility.Day,
		Communities:       n / 20,
		IntraRate:         4.0 / mobility.Day,
		InterRate:         1.0 / mobility.Day,
		RateShape:         0.8,
		InterPairFraction: 32.0 / float64(n),
		HubFraction:       0.05,
		HubBoost:          3,
		MeanContactDur:    120,
	}
}

// The full E2 grid, in the order expt enumerates it: presets, then
// refresh points, then the five figure schemes, then replicates.
// E2's run time varies by about 15% with the seed of its traces, so the
// unit runs every cell on e2Replicates traces per preset.
var (
	e2Presets = []string{"reality-like", "infocom-like"}
	e2Hours   = map[string][]float64{
		"reality-like": {2, 4, 8, 16, 24},
		"infocom-like": {1, 2, 4, 8},
	}
	e2Schemes = []string{"norefresh", "direct", "hierarchical-norep", "hierarchical", "epidemic"}
)

const e2Replicates = 3

// e2TraceSeed is the seed E2's cells of one replicate generate their
// trace from: derived once by the sweep and once more by the shared trace
// cache.
func e2TraceSeed(seed int64, rep int) int64 {
	return expt.TraceSeedFor(expt.TraceSeedFor(seed, rep), 0)
}

func presetGen(name string) mobility.Generator {
	g, err := mobility.Preset(name)
	if err != nil {
		panic(err) // the names above are the package's own presets
	}
	return g
}

// hierRuns is a workload of one hierarchical run per trace; mutate moves
// the scenario off the default point.
func hierRuns(record bool, mutate func(*expt.Scenario)) func(int64, []*input) []simRun {
	return func(_ int64, ins []*input) []simRun {
		var out []simRun
		for _, in := range ins {
			sc := baseScenario(in.seed)
			if mutate != nil {
				mutate(&sc)
			}
			out = append(out, simRun{sc: sc, scheme: "hierarchical", in: in, record: record})
		}
		return out
	}
}

// realityTraces is how many reality-like traces one reality unit runs.
// Traces drawn from different seeds differ by about 10% in contacts,
// allocations and run time; a unit over several of them keeps a seed's
// numbers close to any other seed's.
const realityTraces = 8

func realityLike(seed int64) []traceSpec {
	out := make([]traceSpec, realityTraces)
	for i := range out {
		out[i] = traceSpec{mobility.RealityLike(), stats.DeriveSeed(seed, "reality-like", strconv.Itoa(i))}
	}
	return out
}

// workloads are the benchmark's workloads, by name. Why each one exists is
// in README.md; the short form is in BENCHMARK.json.
var workloads = map[string]*workload{
	"reality-hier": {
		name: "reality-hier", workers: 1,
		traces: realityLike,
		runs:   hierRuns(false, nil),
	},
	"reality-obs": {
		name: "reality-obs", workers: 1,
		traces: realityLike,
		runs:   hierRuns(true, nil),
	},
	"sweep-e2": {
		name: "sweep-e2", workers: 2, reuse: true,
		traces: func(seed int64) []traceSpec {
			var out []traceSpec
			for _, p := range e2Presets {
				for rep := 0; rep < e2Replicates; rep++ {
					out = append(out, traceSpec{presetGen(p), e2TraceSeed(seed, rep)})
				}
			}
			return out
		},
		runs: func(seed int64, ins []*input) []simRun {
			var out []simRun
			for pi, p := range e2Presets {
				for pt, h := range e2Hours[p] {
					for _, s := range e2Schemes {
						for rep := 0; rep < e2Replicates; rep++ {
							sc := baseScenario(stats.DeriveSeed(seed, "E2", p, strconv.Itoa(pt), s, strconv.Itoa(rep)))
							sc.TracePreset = p
							sc.RefreshInterval = h * mobility.Hour
							out = append(out, simRun{sc: sc, scheme: s, in: ins[pi*e2Replicates+rep]})
						}
					}
				}
			}
			return out
		},
		sweep: runE2,
	},
	"largen-5k": {
		name: "largen-5k", workers: 1,
		traces: func(seed int64) []traceSpec { return []traceSpec{{largeN(5000), seed}} },
		// E21's operating point: inter-community rates bound the refresh
		// delay, so a 12 h cycle with K=64.
		runs: hierRuns(false, func(sc *expt.Scenario) {
			sc.NumCachingNodes = 64
			sc.RefreshInterval = 12 * mobility.Hour
		}),
	},
}

// setupTimes is one set-up repetition split into its two layers.
type setupTimes struct{ generate, compile time.Duration }

// setup generates and compiles the workload's traces once.
func setup(specs []traceSpec) ([]*input, setupTimes, error) {
	var st setupTimes
	ins := make([]*input, len(specs))
	for i, s := range specs {
		t0 := time.Now()
		tr, err := s.gen.Generate(s.seed)
		if err != nil {
			return nil, st, fmt.Errorf("generate %s: %w", s.gen.Name(), err)
		}
		t1 := time.Now()
		tl := network.CompileTimeline(tr)
		st.generate += t1.Sub(t0)
		st.compile += time.Since(t1)
		ins[i] = &input{tr: tr, tl: tl, seed: s.seed}
	}
	return ins, st, nil
}

// exec runs r once on reuse (nil for a fresh engine). With sp set, the
// scheme is wrapped in the timing decorator and the run's spans are
// recorded into sp.
func (r simRun) exec(reuse *core.Reuse, sp *spans) (runOut, error) {
	scheme, err := core.SchemeByName(r.scheme)
	if err != nil {
		return runOut{}, err
	}
	sc := r.sc
	sc.ContactTimeline = r.in.tl
	sc.Reuse = reuse
	var rec recording
	var obsSetup time.Duration
	if r.record {
		start := time.Now()
		label := r.in.tr.Name + "/" + r.scheme
		rec = recording{
			rt:  obs.NewRunTrace(label, 1, 0),
			lin: obs.NewLineage(label, r.scheme, 0),
			tl:  obs.NewTimeline(label, 0),
		}
		sc.Obs, sc.Metrics, sc.Lineage, sc.Timeline = rec.rt, obs.NewRegistry(), rec.lin, rec.tl
		sc.TimelineTick = timelineTick
		obsSetup = time.Since(start)
	}
	var res metrics.Result
	if sp != nil {
		res, err = sp.run(sc, scheme, r.in.tr)
	} else {
		res, _, err = sc.RunOnTrace(scheme, r.in.tr)
	}
	if err != nil {
		return runOut{}, err
	}
	if err := checkResult(res); err != nil {
		return runOut{}, fmt.Errorf("%s on %s: %w", r.scheme, r.in.tr.Name, err)
	}
	out := runOut{Result: res}
	if r.record {
		if err := rec.export(&out); err != nil {
			return runOut{}, err
		}
		out.obsTime = obsSetup + out.exportTime
	}
	return out, nil
}

// recording is one run's obs collectors.
type recording struct {
	rt  *obs.RunTrace
	lin *obs.Lineage
	tl  *obs.Timeline
}

// export serializes every recording to a byte counter, the way the CLI
// writes events.jsonl, trace.json, lineage.jsonl and timeline.csv.
func (rec recording) export(out *runOut) error {
	start := time.Now()
	writers := []func(io.Writer) error{rec.rt.WriteJSONL, rec.rt.WriteChromeTrace, rec.lin.WriteJSONL, rec.tl.WriteCSV}
	for _, write := range writers {
		var n byteCounter
		if err := write(&n); err != nil {
			return fmt.Errorf("export: %w", err)
		}
		out.ExportBytes = append(out.ExportBytes, int64(n))
	}
	out.exportTime = time.Since(start)
	out.EventsSeen, out.Spans, out.Points = rec.rt.Seen(), rec.lin.Len(), rec.tl.Len()
	return nil
}

type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// checkResult rejects results no correct run can produce, whatever the
// seed: it is the output check that still bites on seeds without a golden
// digest.
func checkResult(r metrics.Result) error {
	switch {
	case r.VersionsGenerated <= 0:
		return fmt.Errorf("no versions generated")
	case r.SimulatedEventCount == 0:
		return fmt.Errorf("no events")
	case r.Queries <= 0 || r.Answered > r.Queries || r.QueriesDropped != 0:
		return fmt.Errorf("queries %d answered %d dropped %d", r.Queries, r.Answered, r.QueriesDropped)
	case !(r.FreshnessRatio >= 0 && r.FreshnessRatio <= 1):
		return fmt.Errorf("freshness ratio %v outside [0,1]", r.FreshnessRatio)
	case !(r.OnTimeRatio >= 0 && r.OnTimeRatio <= 1):
		return fmt.Errorf("on-time ratio %v outside [0,1]", r.OnTimeRatio)
	}
	return nil
}

// execRuns runs every run in order on one client and returns their
// outputs and digest.
func execRuns(runs []simRun, reuse *core.Reuse) (outcome, error) {
	o := outcome{outs: make([]runOut, len(runs))}
	for i, r := range runs {
		out, err := r.exec(reuse, nil)
		if err != nil {
			return outcome{}, err
		}
		o.outs[i] = out
		o.events += out.Result.SimulatedEventCount
	}
	d, err := digestOuts(o.outs)
	o.digest = d
	return o, err
}

// digestOuts hashes the runs' outputs with the wall-clock field zeroed:
// equal digests mean equal simulated results.
func digestOuts(outs []runOut) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, o := range outs {
		o.Result.WallClockSeconds = 0
		if err := enc.Encode(o); err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runE2 is the sweep-e2 unit: the real E2 experiment, with replicates, at
// two workers.
func runE2(seed int64) (outcome, error) {
	e2, err := expt.ByID("E2")
	if err != nil {
		return outcome{}, err
	}
	rs := metrics.NewRunStats()
	tables, err := e2.Run(expt.Options{Seed: seed, Parallel: 2, Replicates: e2Replicates, Stats: rs})
	if err != nil {
		return outcome{}, err
	}
	h := sha256.New()
	for _, t := range tables {
		io.WriteString(h, t.Render())
	}
	return outcome{digest: hex.EncodeToString(h.Sum(nil)), events: rs.Events(), tables: tables}, nil
}
