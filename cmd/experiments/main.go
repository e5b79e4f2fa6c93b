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
//
// The observability, store, checkpoint and profiling flags are shared with
// freshsim (expt.RunFlags).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"freshcache/internal/expt"
	"freshcache/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	rf := expt.NewRunFlags(fs)
	var (
		only   = fs.String("run", "", "comma-separated experiment IDs (default all)")
		seed   = fs.Int64("seed", 42, "random seed")
		quick  = fs.Bool("quick", false, "trimmed sweeps for a fast smoke run")
		csvDir = fs.String("csv", "", "directory to write per-table CSV files")
		charts = fs.Bool("charts", false, "also render numeric tables as ASCII charts")
		par    = fs.Int("parallel", 1, "sweep-cell worker bound per experiment, capped at GOMAXPROCS (experiments themselves also run up to this many at once; output stays in order)")
		reps   = fs.Int("replicates", 0, "replicates per sweep cell (0 = experiment default; >1 reports mean±stderr)")
		list   = fs.Bool("list", false, "list the experiment registry and exit")

		keepGoing = fs.Bool("keep-going", false, "finish the whole grid past cell or experiment failures: partial tables get explicit NA holes, the failure roster lands in the manifest, and the exit status is nonzero")
		timings   = fs.Bool("timings", false, "include machine-dependent wall-clock columns in tables that have them (E10)")

		profileSlowest = fs.Int("profile-slowest", 0, "capture pprof CPU profiles of the N most expensive sweep cells into <obs>/profiles/ (requires -obs and -parallel 1)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	initLogging()

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
		seen := make(map[string]bool)
		for _, id := range strings.Split(*only, ",") {
			e, err := expt.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			// Runs are rolled up by label, and two copies of one
			// experiment would record under the same labels.
			if seen[e.ID] {
				return fmt.Errorf("-run lists %s twice", e.ID)
			}
			seen[e.ID] = true
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
	if *profileSlowest < 0 {
		return fmt.Errorf("profile-slowest must be >= 0, got %d", *profileSlowest)
	}
	if *profileSlowest > 0 && rf.Obs == "" {
		return fmt.Errorf("-profile-slowest requires -obs (profiles are written to <obs>/profiles/)")
	}
	if *profileSlowest > 0 && *par != 1 {
		return fmt.Errorf("-profile-slowest requires -parallel 1 (the CPU profiler is process-global; a concurrent cell would pollute the capture)")
	}

	defer rf.Stop()
	if err := rf.Start("experiments", args); err != nil {
		return err
	}
	observer, ledger := rf.Observer, rf.Ledger

	// Per-cell cost attribution for the stored manifest and
	// -profile-slowest. Alloc deltas and profiles are only meaningful when
	// cells run strictly sequentially, so they're granted only at
	// -parallel 1.
	var costs *expt.CellCosts
	if rf.Store != "" || *profileSlowest > 0 {
		costs = expt.NewCellCosts(*profileSlowest, *par == 1)
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
				Stats: rf.Stats, Obs: observer, Timings: *timings,
				Journal: rf.Journal, Ledger: ledger, KeepGoing: *keepGoing,
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

	// CPU profiles of the most expensive cells, most expensive first.
	if *profileSlowest > 0 {
		if err := costs.ProfileErr(); err != nil {
			slog.Warn("per-cell profiling disabled", "err", err)
		}
		profs, err := writeCellProfiles(filepath.Join(rf.Obs, "profiles"), costs.Profiles())
		if err != nil {
			return err
		}
		outputs = append(outputs, profs...)
	}

	// The manifest goes next to the CSVs when -csv is given, into the obs
	// directory when -obs is, and onto the store when -store is. It is
	// written after all tables are printed, and also for keep-going runs
	// with failures (the dispositions are part of the history worth
	// querying). Its digest covers result-determining configuration only,
	// so runs differing merely in execution policy (-parallel,
	// checkpointing) compare as the same configuration in the store.
	if err := rf.Finish(expt.RunReport{
		Seed: *seed,
		Config: map[string]any{
			"run": *only, "quick": *quick, "parallel": *par, "replicates": *reps,
			"timings": *timings, "obsSample": rf.ObsSample, "obsBuffer": rf.ObsBuffer,
			"lineage": rf.Lineage, "timelineTick": *rf.TimelineTick,
			"checkpoint": rf.Checkpoint, "resume": rf.Resume, "keepGoing": *keepGoing,
			"store": rf.Store, "profileSlowest": *profileSlowest,
		},
		Digest: obs.ConfigDigest(map[string]any{
			"run": *only, "quick": *quick, "replicates": *reps, "timings": *timings,
		}),
		Outputs:      outputs,
		Cells:        costs.Cells(),
		ManifestDirs: manifestDirs(*csvDir, rf.Obs),
	}); err != nil {
		return err
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

	// Degradation mode still fails the invocation: partial tables were
	// printed and the roster recorded, but the exit status must say the run
	// was not whole.
	if failures := ledger.Failures(); len(failures) > 0 || len(expErrors) > 0 {
		for _, f := range failures {
			slog.Error("failed cell",
				"experiment", f.Experiment, "preset", f.Preset, "point", f.Point,
				"scheme", f.Scheme, "replicate", f.Replicate, "err", firstLine(f.Error))
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
// diffs are unaffected.
func initLogging() {
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
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
	if sum := opts.Stats.Summary(e.ID, elapsed.Seconds()); sum != "" {
		fmt.Fprintf(&b, "(%s stats: %s)\n", e.ID, sum)
	}
	fmt.Fprintf(&b, "(%s completed in %s)\n\n", e.ID, elapsed.Round(time.Millisecond))
	out.text = b.String()
	return
}
