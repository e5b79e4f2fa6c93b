// Command freshsim runs one cache-freshness simulation: a scheme over a
// trace (built-in preset or external file), printing the aggregated
// metrics as text or JSON.
//
// Usage:
//
//	freshsim -preset reality-like -scheme hierarchical -items 5 -refresh 4h
//	freshsim -trace campus.contacts -scheme epidemic -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"time"

	"freshcache"
	"freshcache/internal/core"
	"freshcache/internal/expt"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "freshsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("freshsim", flag.ContinueOnError)
	rf := expt.NewRunFlags(fs)
	var schemeNames []string
	for _, s := range core.Schemes() {
		schemeNames = append(schemeNames, s.Name)
	}
	var (
		preset    = fs.String("preset", "reality-like", "built-in trace preset (reality-like, infocom-like)")
		traceFile = fs.String("trace", "", "external trace file (overrides -preset)")
		scheme    = fs.String("scheme", "hierarchical", "freshness scheme ("+strings.Join(schemeNames, ", ")+")")
		items     = fs.Int("items", 5, "number of data items (sources at nodes 0..items-1)")
		refresh   = fs.Duration("refresh", 4*time.Hour, "refresh interval R")
		window    = fs.Duration("window", 0, "freshness window F (default R)")
		lifetime  = fs.Duration("lifetime", 0, "version lifetime L (default 2R)")
		caching   = fs.Int("caching", 8, "number of caching nodes K")
		queries   = fs.Float64("queries", 4, "queries per node per day (0 disables)")
		zipf      = fs.Float64("zipf", 1.0, "query popularity Zipf exponent")
		preq      = fs.Float64("preq", 0.9, "required refresh probability")
		fanout    = fs.Int("fanout", 3, "hierarchy fan-out bound")
		relays    = fs.Int("relays", 5, "max replication relays per destination")
		seed      = fs.Int64("seed", 1, "random seed")
		loss      = fs.Float64("loss", 0, "message loss probability [0,1)")
		churnUp   = fs.Duration("churn-up", 0, "mean node up-period (0 disables churn)")
		churnDown = fs.Duration("churn-down", 0, "mean node down-period")
		distKnow  = fs.Bool("distributed", false, "nodes use local gossiped rate knowledge instead of the oracle estimate")
		rebuild   = fs.Duration("rebuild", 0, "periodic hierarchy rebuild interval (0 = never)")
		asJSON    = fs.Bool("json", false, "emit the result as JSON")
		compare   = fs.String("compare", "", "comma-separated schemes to run side by side (overrides -scheme)")
		runs      = fs.Int("runs", 1, "replicate over this many consecutive seeds and report mean ± CI95")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *items < 1 {
		return fmt.Errorf("items must be >= 1, got %d", *items)
	}
	if *runs < 1 {
		return fmt.Errorf("runs must be >= 1, got %d", *runs)
	}
	if rf.Checkpoint != "" && (*runs <= 1 || *compare != "") {
		return fmt.Errorf("-checkpoint applies to replicated runs only (-runs > 1, without -compare)")
	}
	defer rf.Stop()
	if err := rf.Start("freshsim", args); err != nil {
		return err
	}

	specs := make([]freshcache.ItemSpec, *items)
	for i := range specs {
		specs[i] = freshcache.ItemSpec{Source: i, Refresh: *refresh, Window: *window, Lifetime: *lifetime}
	}
	baseOpts := []freshcache.Option{
		freshcache.WithItems(specs...),
		freshcache.WithCachingNodes(*caching),
		freshcache.WithSeed(*seed),
		freshcache.WithFreshnessRequirement(*preq),
		freshcache.WithHierarchyFanout(*fanout),
		freshcache.WithMaxRelays(*relays),
	}
	opts := append([]freshcache.Option{freshcache.WithScheme(freshcache.SchemeName(*scheme))}, baseOpts...)
	if *traceFile != "" {
		baseOpts = append(baseOpts, freshcache.WithTraceFile(*traceFile))
	} else {
		baseOpts = append(baseOpts, freshcache.WithPreset(*preset))
	}
	// 0 turns a feature off; every other value, NaN and negatives
	// included, goes to the option, which rejects what is out of range.
	if *queries != 0 {
		baseOpts = append(baseOpts, freshcache.WithQueryWorkload(*queries, *zipf))
	}
	if *loss != 0 {
		baseOpts = append(baseOpts, freshcache.WithMessageLoss(*loss))
	}
	if *churnUp != 0 || *churnDown != 0 {
		baseOpts = append(baseOpts, freshcache.WithChurn(*churnUp, *churnDown))
	}
	if *distKnow {
		baseOpts = append(baseOpts, freshcache.WithDistributedKnowledge())
	}
	if *rebuild != 0 {
		baseOpts = append(baseOpts, freshcache.WithRebuildInterval(*rebuild))
	}
	opts = append(opts, baseOpts...)

	err := func() error {
		if *compare != "" {
			return runComparison(*compare, baseOpts, rf)
		}
		if *runs > 1 {
			traceName := *preset
			if *traceFile != "" {
				traceName = "file:" + *traceFile
			}
			return runReplicated(replicatedConfig{
				runs:       *runs,
				baseSeed:   *seed,
				scheme:     *scheme,
				traceName:  traceName,
				experiment: replicatedExperimentID(fs),
			}, baseOpts, rf)
		}

		sim, res, err := simulate(rf, "freshsim/"+*scheme, *scheme, opts)
		if err != nil {
			return err
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(res)
		}
		fmt.Println(res.String())
		fmt.Printf("caching nodes:       %v\n", sim.CachingNodes())
		fmt.Printf("freshness ratio:     %.4f\n", res.FreshnessRatio)
		fmt.Printf("valid access ratio:  %.4f (fresh %.4f, answered %.4f of %d queries)\n",
			res.ValidAnswers, res.FreshAnswers, res.AnsweredOK, res.Queries)
		fmt.Printf("refresh delay:       mean %s, p90 %s, on-time %.4f\n",
			time.Duration(res.MeanRefreshDelay*float64(time.Second)).Round(time.Second),
			time.Duration(res.P90RefreshDelay*float64(time.Second)).Round(time.Second),
			res.OnTimeRatio)
		fmt.Printf("overhead:            %.2f tx/version (%d total; source share %.3f)\n",
			res.TxPerVersion, res.Transmissions, res.SourceTxShare)
		fmt.Printf("first-delivery on-time ratio: %.4f (requirement %.2f)\n",
			sim.FirstDeliveryOnTimeRatio(), *preq)
		return nil
	}()
	if err != nil {
		return err
	}
	// The flag digest already covers exactly the simulation-relevant
	// configuration (output and checkpointing flags excluded).
	return rf.Finish(expt.RunReport{
		Seed:         *seed,
		Digest:       strings.TrimPrefix(replicatedExperimentID(fs), "freshsim-"),
		ManifestDirs: []string{rf.Obs},
	})
}

// simulate runs one labelled simulation recording into the run flags'
// observer and, when the run succeeds, records its result into their
// RunStats and commits the recording.
func simulate(rf *expt.RunFlags, label, scheme string, opts []freshcache.Option) (*freshcache.Simulation, freshcache.Result, error) {
	rec := rf.Observer.Open(label, scheme)
	sim, err := freshcache.New(append([]freshcache.Option{freshcache.WithRecording(rec)}, opts...)...)
	if err != nil {
		return nil, freshcache.Result{}, err
	}
	res, err := sim.Run()
	if err != nil {
		return nil, res, err
	}
	rf.Stats.Record(label, res)
	rf.Observer.Commit(rec)
	return sim, res, nil
}

// replicatedConfig parameterises one replicated (-runs > 1) invocation.
type replicatedConfig struct {
	runs       int
	baseSeed   int64
	scheme     string
	traceName  string
	experiment string
}

// replicatedExperimentID digests the simulation-relevant flags into the
// sweep's experiment ID, so a checkpoint journal written under one
// configuration can never replay into a run whose flags changed (the
// journal matches on the sweep fingerprint and per-cell seeds, both of
// which incorporate the experiment ID). Output flags and the shared
// observability, store, checkpoint and profiling flags are excluded:
// moving the journal or toggling -obs must not invalidate it.
func replicatedExperimentID(fs *flag.FlagSet) string {
	h := fnv.New64a()
	fs.VisitAll(func(f *flag.Flag) { // lexical order: deterministic
		if f.Name == "json" || f.Name == "compare" || expt.IsRunFlag(f.Name) {
			return
		}
		fmt.Fprintf(h, "%s=%s\x1f", f.Name, f.Value.String())
	})
	return fmt.Sprintf("freshsim-%016x", h.Sum64())
}

// runReplicated runs the scheme over `runs` consecutive seeds and reports
// the mean and 95% confidence half-width of the headline metrics. The
// replicates are routed through the expt sweep runner for its crash-safety
// machinery: with a checkpoint journal attached every completed replicate
// is journaled and synced, and -resume replays journaled replicates instead
// of re-running them — the stdout report is byte-identical to an
// uninterrupted run.
func runReplicated(cfg replicatedConfig, baseOpts []freshcache.Option, rf *expt.RunFlags) error {
	s := expt.Sweep{
		Experiment: cfg.experiment,
		Presets:    []string{cfg.traceName},
		Points:     1,
		Schemes:    []string{cfg.scheme},
		Replicates: cfg.runs,
		Parallel:   1,
		BaseSeed:   cfg.baseSeed,
		Obs:        rf.Observer,
		Journal:    rf.Journal,
		Ledger:     rf.Ledger,
	}
	// Replicates run sequentially (Parallel: 1), so one recycled state
	// bundle serves every run: each replicate's metrics are extracted
	// before the next simulation is built.
	reuse := core.NewReuse()
	res, err := s.Run(func(c expt.Cell) ([]float64, error) {
		// The replicate semantics predate the sweep runner: replicate i
		// simulates seed base+i, so existing invocations keep their numbers.
		// (c.Seed still namespaces the journal records for replay checks.)
		simSeed := cfg.baseSeed + int64(c.Replicate)
		opts := append([]freshcache.Option{
			freshcache.WithScheme(freshcache.SchemeName(cfg.scheme)),
			freshcache.WithRunStateReuse(reuse),
		}, baseOpts...)
		// Applied last so it overrides the base -seed flag.
		opts = append(opts, freshcache.WithSeed(simSeed))
		_, res, err := simulate(rf, fmt.Sprintf("freshsim/%s/seed-%d", cfg.scheme, simSeed), cfg.scheme, opts)
		if err != nil {
			return nil, err
		}
		return []float64{res.FreshnessRatio, res.ValidAccessRate, res.TxPerVersion}, nil
	})
	if err != nil {
		return err
	}
	if n := res.ReplayedCells(); n > 0 {
		fmt.Fprintf(os.Stderr, "freshsim: replayed %d of %d replicate(s) from checkpoint\n", n, cfg.runs)
	}
	report := func(name string, metric int) {
		fmt.Printf("%-20s %.4f ± %.4f (CI95 over %d seeds)\n",
			name+":", res.Mean(0, 0, 0, metric), res.CI95(0, 0, 0, metric), cfg.runs)
	}
	fmt.Printf("%s over seeds %d..%d\n", cfg.scheme, cfg.baseSeed, cfg.baseSeed+int64(cfg.runs)-1)
	report("freshness ratio", 0)
	report("valid access rate", 1)
	report("tx/version", 2)
	return nil
}

// runComparison runs each named scheme over the identical configuration
// and prints one comparison row per scheme.
func runComparison(schemes string, baseOpts []freshcache.Option, rf *expt.RunFlags) error {
	fmt.Printf("%-20s  %-9s  %-11s  %-10s  %-12s  %-8s\n",
		"scheme", "freshness", "validAccess", "tx/version", "sourceShare", "loadGini")
	for _, name := range strings.Split(schemes, ",") {
		name = strings.TrimSpace(name)
		opts := append([]freshcache.Option{freshcache.WithScheme(freshcache.SchemeName(name))}, baseOpts...)
		_, res, err := simulate(rf, "freshsim/"+name, name, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("%-20s  %-9.4f  %-11.4f  %-10.2f  %-12.3f  %-8.3f\n",
			name, res.FreshnessRatio, res.ValidAccessRate, res.TxPerVersion,
			res.SourceTxShare, res.LoadGini)
	}
	return nil
}
