// Command experiments regenerates the paper-reproduction evaluation: every
// table and figure of the suite (E1…E21, see DESIGN.md), as aligned text
// on stdout and optionally as CSV files. Its performance is measured by
// the repository benchmark in bench/.
//
// Usage:
//
//	experiments                 # run everything
//	experiments -run E2,E5      # selected experiments
//	experiments -quick          # trimmed sweeps (smoke run)
//	experiments -csv out/       # also write one CSV per table
//	experiments -cpuprofile cpu.pb.gz   # pprof CPU profile of the run
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"freshcache/internal/expt"
	"freshcache/internal/metrics"
	"freshcache/internal/obs"
	"freshcache/internal/obs/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		only   = fs.String("run", "", "comma-separated experiment IDs (default all)")
		seed   = fs.Int64("seed", 42, "random seed")
		quick  = fs.Bool("quick", false, "trimmed sweeps for a fast smoke run")
		csvDir = fs.String("csv", "", "directory to write per-table CSV files")
		charts = fs.Bool("charts", false, "also render numeric tables as ASCII charts")
		par    = fs.Int("parallel", 1, "sweep-cell worker bound per experiment, capped at GOMAXPROCS (experiments themselves also run up to this many at once; output stays in order)")
		reps   = fs.Int("replicates", 0, "replicates per sweep cell (0 = experiment default; >1 reports mean±stderr)")
		list   = fs.Bool("list", false, "list the experiment registry and exit")

		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")

		checkpoint = fs.String("checkpoint", "", "per-cell checkpoint journal (JSONL): completed sweep cells are appended and fsynced as they finish, so an interrupted run can be resumed")
		resume     = fs.Bool("resume", false, "replay completed cells from the -checkpoint journal and execute only the remainder; resumed tables are byte-identical to an uninterrupted run")
		keepGoing  = fs.Bool("keep-going", false, "finish the whole grid past cell or experiment failures: partial tables get explicit NA holes, the failure roster lands in the manifest, and the exit status is nonzero")
		retries    = fs.Int("retries", 0, "per-cell retry budget for transient failures (0 = fail on first error)")

		obsDir       = fs.String("obs", "", "directory for observability output: events.jsonl (per-run event trace), trace.json (Chrome trace-event JSON for Perfetto), metrics.om (OpenMetrics registry snapshot) and manifest.json")
		obsSample    = fs.Int("obs-sample", 1, "keep 1 in N trace events (1 = all)")
		obsBuffer    = fs.Int("obs-buffer", obs.DefaultBufferCap, "per-run trace ring-buffer capacity in events")
		lineage      = fs.Bool("lineage", false, "collect causal refresh-lineage spans (generation → duty → handoff → delivery trees) per run and write lineage.jsonl to the -obs directory (requires -obs)")
		timelineTick = obs.TimelineTickFlag(fs)
		timings      = fs.Bool("timings", false, "include machine-dependent wall-clock columns in tables that have them (E10)")
		httpAddr     = fs.String("http", "", "serve the live endpoint on this address for the duration of the run: HTML status page at /, sweep progress SSE at /live/progress, OpenMetrics at /live/metrics, pprof at /debug/pprof")

		storePath      = fs.String("store", "", "append this run's record (provenance, metric snapshot, per-cell costs, dispositions) to the cross-run results store at this path (JSONL; query with obsreport trend/query/gate)")
		profileSlowest = fs.Int("profile-slowest", 0, "capture pprof CPU profiles of the N most expensive sweep cells into <obs>/profiles/ (requires -obs and -parallel 1)")
		verbose        = fs.Bool("v", false, "verbose: log at debug level (per-cell retries and other detail)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	initLogging(*verbose)
	start := time.Now()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				slog.Error("memprofile", "err", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				slog.Error("memprofile", "err", err)
			}
		}()
	}

	if *list {
		for _, e := range expt.All() {
			fmt.Printf("%-4s %-55s (%s)\n", e.ID, e.Title, e.PaperAnalogue)
		}
		return nil
	}

	var selected []expt.Experiment
	if *only == "" {
		selected = expt.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			e, err := expt.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	if *par < 1 {
		return fmt.Errorf("parallel must be >= 1, got %d", *par)
	}
	if *reps < 0 {
		return fmt.Errorf("replicates must be >= 0, got %d", *reps)
	}
	if *obsSample < 1 {
		return fmt.Errorf("obs-sample must be >= 1, got %d", *obsSample)
	}
	if *retries < 0 {
		return fmt.Errorf("retries must be >= 0, got %d", *retries)
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint (the journal to replay)")
	}
	if (*lineage || *timelineTick != 0) && *obsDir == "" {
		return fmt.Errorf("-lineage and -timeline-tick require -obs (the output directory)")
	}
	if *profileSlowest < 0 {
		return fmt.Errorf("profile-slowest must be >= 0, got %d", *profileSlowest)
	}
	if *profileSlowest > 0 && *obsDir == "" {
		return fmt.Errorf("-profile-slowest requires -obs (profiles are written to <obs>/profiles/)")
	}
	if *profileSlowest > 0 && *par != 1 {
		return fmt.Errorf("-profile-slowest requires -parallel 1 (the CPU profiler is process-global; a concurrent cell would pollute the capture)")
	}

	// Crash-safety plumbing: the journal checkpoints completed sweep cells
	// (and replays them under -resume); the ledger accounts every cell's
	// disposition and collects the permanent-failure roster.
	ledger := &expt.Ledger{}
	var journal *expt.Journal
	if *checkpoint != "" {
		j, err := expt.OpenJournal(*checkpoint, *resume)
		if err != nil {
			return err
		}
		journal = j
		defer journal.Close()
		if *resume {
			slog.Info("resuming from checkpoint journal",
				"journal", *checkpoint, "completedCells", journal.Len())
		}
	}

	// The observer exists when anything consumes it: trace output (-obs),
	// the live endpoint (-http) or the results store (-store). Nil
	// otherwise, so hot paths stay zero-cost.
	var observer *obs.Observer
	if *obsDir != "" || *httpAddr != "" || *storePath != "" {
		if *obsDir != "" {
			if err := os.MkdirAll(*obsDir, 0o755); err != nil {
				return err
			}
		}
		observer = obs.NewObserver(obs.Config{SampleEvery: *obsSample, BufferCap: *obsBuffer,
			Lineage: *lineage, TimelineTick: *timelineTick})
	}

	// Per-cell cost attribution for the store and -profile-slowest. Alloc
	// deltas and profiles are only meaningful when cells run strictly
	// sequentially, so they're granted only at -parallel 1.
	var costs *expt.CellCosts
	if *storePath != "" || *profileSlowest > 0 {
		costs = expt.NewCellCosts(*profileSlowest, *par == 1)
	}

	// The live endpoint owns its mux and listener (the old expvar-based
	// serveDebug registered pprof on the default mux and leaked its listener
	// across run() calls); Close on return drains it.
	if *httpAddr != "" {
		live, err := obs.ServeLive(*httpAddr, observer.Registry(), ledger.Snapshot)
		if err != nil {
			return fmt.Errorf("http: %w", err)
		}
		defer live.Close()
		slog.Info("live endpoint serving", "url", "http://"+live.Addr()+"/")
	}

	// Experiments run concurrently up to the -parallel bound; each one's
	// rendered output is buffered and printed in registry order so logs
	// stay deterministic regardless of completion order. The semaphore is
	// acquired before spawning so at most -parallel goroutines exist at a
	// time, instead of one per experiment all parked on the semaphore.
	results := make([]outcome, len(selected))
	sem := make(chan struct{}, *par)
	var wg sync.WaitGroup
	for i, e := range selected {
		i, e := i, e
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			opts := expt.Options{Seed: *seed, Quick: *quick, Parallel: *par, Replicates: *reps,
				Obs: observer, Timings: *timings,
				Journal: journal, Ledger: ledger, Retries: *retries, KeepGoing: *keepGoing,
				Costs: costs}
			results[i] = runOne(e, opts, *charts, *csvDir)
		}()
	}
	wg.Wait()
	var outputs []string
	var expErrors []string
	for i, r := range results {
		if r.err != nil {
			if !*keepGoing {
				return fmt.Errorf("%s: %w", selected[i].ID, r.err)
			}
			// Degradation mode: a failed experiment must not throw away the
			// others' completed work. Note it, keep printing the rest, and
			// fail the exit status at the end.
			slog.Warn("experiment failed (continuing, -keep-going)",
				"experiment", selected[i].ID, "err", r.err)
			expErrors = append(expErrors, fmt.Sprintf("%s: %v", selected[i].ID, r.err))
			continue
		}
		fmt.Print(r.text)
		outputs = append(outputs, r.files...)
	}

	if observer != nil && *obsDir != "" {
		for _, f := range []struct {
			name  string
			write func(*os.File) error
		}{
			{"events.jsonl", func(f *os.File) error { return observer.WriteJSONL(f) }},
			{"trace.json", func(f *os.File) error { return observer.WriteChromeTrace(f) }},
			{"metrics.om", func(f *os.File) error { return obs.WriteOpenMetrics(f, observer.Metrics.Snapshot()) }},
			{"lineage.jsonl", func(f *os.File) error { return observer.WriteLineageJSONL(f) }},
			{"timeline.csv", func(f *os.File) error { return observer.WriteTimelineCSV(f) }},
		} {
			if f.name == "lineage.jsonl" && !*lineage {
				continue
			}
			if f.name == "timeline.csv" && *timelineTick == 0 {
				continue
			}
			path := filepath.Join(*obsDir, f.name)
			out, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := f.write(out); err != nil {
				out.Close()
				return fmt.Errorf("obs: %s: %w", f.name, err)
			}
			if err := out.Close(); err != nil {
				return err
			}
			outputs = append(outputs, path)
		}
	}

	// CPU profiles of the most expensive cells, most expensive first.
	if *profileSlowest > 0 {
		if err := costs.ProfileErr(); err != nil {
			slog.Warn("per-cell profiling disabled", "err", err)
		}
		profs, err := writeCellProfiles(filepath.Join(*obsDir, "profiles"), costs.Profiles())
		if err != nil {
			return err
		}
		outputs = append(outputs, profs...)
	}

	// A manifest accompanies the run's artifacts: next to the CSVs when
	// -csv is given, and in the obs directory when -obs is.
	if *csvDir != "" || observer != nil {
		m := obs.NewManifest("experiments")
		m.Command = append([]string{"experiments"}, args...)
		m.Seed = *seed
		m.Config = map[string]any{
			"run": *only, "quick": *quick, "parallel": *par, "replicates": *reps,
			"timings": *timings, "obsSample": *obsSample, "obsBuffer": *obsBuffer,
			"lineage": *lineage, "timelineTick": *timelineTick,
			"checkpoint": *checkpoint, "resume": *resume,
			"keepGoing": *keepGoing, "retries": *retries,
			"store": *storePath, "profileSlowest": *profileSlowest,
		}
		m.Outputs = outputs
		if observer != nil {
			snap := observer.Metrics.Snapshot()
			m.Metrics = &snap
			st := observer.Stats()
			m.Events = &st
			m.SchemeStats = observer.SchemeRollups()
		}
		// Crash-safety provenance: the permanent-failure roster and the
		// checkpoint/resume cell accounting.
		m.Failures = ledger.Failures()
		if *checkpoint != "" || len(m.Failures) > 0 {
			rs := ledger.Summary()
			rs.Journal = *checkpoint
			rs.Resumed = *resume
			m.Resume = &rs
		}
		m.FinishResources(start)
		for _, dir := range manifestDirs(*csvDir, *obsDir) {
			if err := m.Write(filepath.Join(dir, "manifest.json")); err != nil {
				return err
			}
		}
	}
	// Process-wide memory footer. Parenthesized like the per-experiment
	// stats lines, so determinism checks that strip timing footers strip
	// this too.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	// HeapSys only grows, so it is the peak OS-mapped heap of the run.
	fmt.Printf("(mem: totalAlloc=%.1fMB mallocs=%d heapInuse=%.1fMB peakHeapSys=%.1fMB gc=%d)\n",
		float64(m.TotalAlloc)/(1<<20), m.Mallocs, float64(m.HeapInuse)/(1<<20),
		float64(m.HeapSys)/(1<<20), m.NumGC)

	// Append the run's record to the cross-run results store — after all
	// stdout, so determinism diffs of the tables see no difference, and
	// even for keep-going runs with failures (the dispositions are part of
	// the history worth querying).
	if *storePath != "" {
		rec := store.NewRecord("experiments")
		rec.Command = append([]string{"experiments"}, args...)
		rec.Seed = *seed
		// The digest covers result-determining configuration only, so runs
		// differing merely in execution policy (-parallel, -retries,
		// checkpointing) compare as the same configuration in the store.
		rec.ConfigDigest = store.ConfigDigest(map[string]any{
			"run": *only, "quick": *quick, "replicates": *reps, "timings": *timings,
		})
		rec.WallClockSeconds = time.Since(start).Seconds()
		snap := observer.Metrics.Snapshot()
		rec.Metrics = store.FlattenMetrics(snap, observer.SchemeRollups())
		rec.Histograms = snap.Histograms
		rec.Cells = costs.Cells()
		rs := ledger.Summary()
		rs.Journal = *checkpoint
		rs.Resumed = *resume
		rec.Resume = &rs
		if err := store.Append(*storePath, rec); err != nil {
			return err
		}
		slog.Info("run record appended to results store", "store", *storePath)
	}

	// Degradation mode still fails the invocation: partial tables were
	// printed and the roster recorded, but the exit status must say the run
	// was not whole.
	if failures := ledger.Failures(); len(failures) > 0 || len(expErrors) > 0 {
		for _, f := range failures {
			slog.Error("failed cell",
				"experiment", f.Experiment, "preset", f.Preset, "point", f.Point,
				"scheme", f.Scheme, "replicate", f.Replicate, "attempts", f.Attempts,
				"err", firstLine(f.Error))
		}
		return fmt.Errorf("completed with %d failed cell(s) and %d failed experiment(s); partial tables contain NA holes",
			len(failures), len(expErrors))
	}
	return nil
}

// firstLine trims a multi-line error (panic stacks) for the stderr roster;
// the full text is in the manifest.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// outcome is one experiment's rendered output block (or its error), plus
// the files it wrote.
type outcome struct {
	text  string
	files []string
	err   error
}

// manifestDirs returns the distinct non-empty directories a manifest.json
// belongs in.
func manifestDirs(dirs ...string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, d := range dirs {
		if d == "" || seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// initLogging routes progress and warning output through a text slog
// handler on stderr — stdout stays reserved for tables, so determinism
// diffs are unaffected. -v lowers the level to debug.
func initLogging(verbose bool) {
	level := slog.LevelInfo
	if verbose {
		level = slog.LevelDebug
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))
}

// writeCellProfiles writes the retained per-cell CPU profiles into dir,
// most expensive first, and returns the written paths.
func writeCellProfiles(dir string, profs []expt.CellProfile) ([]string, error) {
	if len(profs) == 0 {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var out []string
	for rank, p := range profs {
		scheme := p.Cost.Scheme
		if scheme == "" {
			scheme = "default"
		}
		name := fmt.Sprintf("%02d-%s-%s-p%02d-%s-r%d.pprof",
			rank, p.Cost.Experiment, p.Cost.Preset, p.Cost.Point, scheme, p.Cost.Replicate)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, p.Data, 0o644); err != nil {
			return nil, err
		}
		slog.Info("wrote cell profile", "path", path,
			"wallSeconds", p.Cost.WallSeconds, "mallocs", p.Cost.Mallocs)
		out = append(out, path)
	}
	return out, nil
}

// runOne executes one experiment and renders its full output block.
func runOne(e expt.Experiment, opts expt.Options, charts bool, csvDir string) (out outcome) {
	start := time.Now()
	stats := metrics.NewRunStats()
	opts.Stats = stats
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s (paper analogue: %s)\n", e.ID, e.Title, e.PaperAnalogue)
	tables, err := e.Run(opts)
	if err != nil {
		out.err = err
		return
	}
	for i, t := range tables {
		fmt.Fprintln(&b, t.Render())
		if charts && t.Chartable() {
			chart, err := t.Chart(64, 16)
			if err != nil {
				out.err = fmt.Errorf("chart for table %q: %w", t.Title, err)
				return
			}
			fmt.Fprintln(&b, chart)
		}
		if csvDir != "" {
			name := fmt.Sprintf("%s_%d.csv", strings.ToLower(e.ID), i)
			path := filepath.Join(csvDir, name)
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				out.err = err
				return
			}
			out.files = append(out.files, path)
		}
	}
	elapsed := time.Since(start)
	if stats.Runs() > 0 {
		fmt.Fprintf(&b, "(%s stats: %s)\n", e.ID, stats.Summary(elapsed.Seconds()))
	}
	fmt.Fprintf(&b, "(%s completed in %s)\n\n", e.ID, elapsed.Round(time.Millisecond))
	out.text = b.String()
	return
}
