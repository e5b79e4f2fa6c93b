package expt

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"freshcache/internal/metrics"
	"freshcache/internal/obs"
)

// RunFlags is the flag surface cmd/experiments and cmd/freshsim share:
// observability output, the cross-run results store, checkpointing and
// profiling. NewRunFlags defines the flags; after parsing, Start checks
// them and opens what they ask for, Finish writes the run's exports and
// its manifest, and Stop releases the rest.
type RunFlags struct {
	Obs          string
	ObsSample    int
	ObsBuffer    int
	Lineage      bool
	TimelineTick *float64
	Store        string
	Checkpoint   string
	Resume       bool
	CPUProfile   string
	MemProfile   string

	// Set by Start. Observer is nil unless something consumes it, so
	// recording costs nothing then; Journal is nil without -checkpoint.
	// Stats keeps one row per run of the process, for the experiment
	// footers and the manifest's per-scheme roll-ups.
	Observer *obs.Observer
	Journal  *Journal
	Ledger   *Ledger
	Stats    *metrics.RunStats

	tool  string
	args  []string
	start time.Time
	cpu   *os.File
}

// NewRunFlags defines the shared flags on fs.
func NewRunFlags(fs *flag.FlagSet) *RunFlags {
	f := &RunFlags{}
	fs.StringVar(&f.Obs, "obs", "", "directory for observability output: events.jsonl (per-run event trace), trace.json (Chrome trace-event JSON for Perfetto), metrics.om (OpenMetrics registry snapshot), manifest.json, and lineage.jsonl and timeline.csv when -lineage and -timeline-tick ask for them")
	fs.IntVar(&f.ObsSample, "obs-sample", 1, "keep 1 in N trace events (1 = all)")
	fs.IntVar(&f.ObsBuffer, "obs-buffer", obs.DefaultBufferCap, "per-run trace ring-buffer capacity in events (>= 1)")
	fs.BoolVar(&f.Lineage, "lineage", false, "collect causal refresh-lineage spans (generation → duty → handoff → delivery trees) per run and write lineage.jsonl to the -obs directory (requires -obs)")
	f.TimelineTick = obs.TimelineTickFlag(fs)
	fs.StringVar(&f.Store, "store", "", "append this run's manifest (provenance, metric snapshot, cell dispositions and costs) as one line to the cross-run results store at this path (JSONL; query with obsreport trend/query)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "checkpoint journal (JSONL): each completed sweep cell or replicate is appended and fsynced as it finishes, so an interrupted run can be resumed")
	fs.BoolVar(&f.Resume, "resume", false, "replay completed cells from the -checkpoint journal and execute only the remainder; the output is byte-identical to an uninterrupted run")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	return f
}

// IsRunFlag reports whether NewRunFlags defines the flag name.
func IsRunFlag(name string) bool {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	NewRunFlags(fs)
	return fs.Lookup(name) != nil
}

// check rejects values that cannot work or would silently mean "off".
func (f *RunFlags) check() error {
	switch {
	case f.ObsSample < 1:
		return fmt.Errorf("obs-sample must be >= 1, got %d", f.ObsSample)
	case f.ObsBuffer < 1:
		return fmt.Errorf("obs-buffer must be >= 1, got %d", f.ObsBuffer)
	case f.Resume && f.Checkpoint == "":
		return errors.New("-resume requires -checkpoint (the journal to replay)")
	case (f.Lineage || *f.TimelineTick != 0) && f.Obs == "":
		return errors.New("-lineage and -timeline-tick require -obs (the output directory)")
	}
	return nil
}

// Start checks the flags, then starts the CPU profile, opens the
// checkpoint journal, and creates the -obs directory and the observer.
// The observer exists when -obs or -store asks for one. tool and args
// name the invocation in the manifest.
// Defer Stop before calling Start: it releases whatever Start opened.
func (f *RunFlags) Start(tool string, args []string) error {
	if err := f.check(); err != nil {
		return err
	}
	f.tool, f.args, f.start = tool, args, time.Now()
	f.Ledger, f.Stats = &Ledger{}, metrics.NewRunStats()
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		f.cpu = file
	}
	if f.Checkpoint != "" {
		j, err := OpenJournal(f.Checkpoint, f.Resume)
		if err != nil {
			return err
		}
		f.Journal = j
		if f.Resume {
			slog.Info("resuming from checkpoint journal", "journal", f.Checkpoint, "completedCells", j.Len())
		}
	}
	if f.Obs != "" {
		if err := os.MkdirAll(f.Obs, 0o755); err != nil {
			return err
		}
	}
	if f.Obs != "" || f.Store != "" {
		f.Observer = obs.NewObserver(obs.Config{SampleEvery: f.ObsSample, BufferCap: f.ObsBuffer,
			Lineage: f.Lineage, TimelineTick: *f.TimelineTick})
	}
	return nil
}

// Stop stops the CPU profile, writes the heap profile and closes the
// journal. It logs its errors: the run's own outcome stands.
func (f *RunFlags) Stop() {
	if f.cpu != nil {
		pprof.StopCPUProfile()
		if err := f.cpu.Close(); err != nil {
			slog.Error("cpuprofile", "err", err)
		}
	}
	if f.MemProfile != "" {
		if err := writeHeapProfile(f.MemProfile); err != nil {
			slog.Error("memprofile", "err", err)
		}
	}
	if err := f.Journal.Close(); err != nil {
		slog.Error("checkpoint journal", "err", err)
	}
}

func writeHeapProfile(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// RunReport is what a command adds to the artifacts Finish writes.
type RunReport struct {
	Seed int64
	// Config is the manifest's configuration (nil leaves it out), and
	// Digest its digest of the configuration that determines results.
	Config map[string]any
	Digest string
	// Outputs lists the files the command wrote; Finish adds the exports.
	Outputs []string
	// Cells is the per-cell cost attribution.
	Cells []obs.CellCost
	// ManifestDirs are the directories that get a manifest.json; empty
	// entries are skipped.
	ManifestDirs []string
}

// Finish writes the run's artifacts: the observer's exports into the
// -obs directory, and one manifest, written into each of r.ManifestDirs
// and appended as one line to the -store file. It first adds the ledger's
// cell counts to the observer's registry, so call it once, after the
// run's last sweep.
func (f *RunFlags) Finish(r RunReport) error {
	if f.Observer != nil {
		f.Ledger.AddTo(f.Observer.Metrics)
	}
	outputs := r.Outputs
	if f.Obs != "" {
		paths, err := f.writeExports()
		if err != nil {
			return err
		}
		outputs = append(outputs, paths...)
	}
	m := obs.NewManifest(f.tool)
	m.Command = append([]string{f.tool}, f.args...)
	m.Seed = r.Seed
	m.Config = r.Config
	m.ConfigDigest = r.Digest
	m.Outputs = outputs
	m.Cells = r.Cells
	if f.Observer != nil {
		snap := f.Observer.Metrics.Snapshot()
		m.Metrics = &snap
		st := f.Observer.Stats()
		m.Events = &st
		m.SchemeStats = f.Stats.SchemeRollups()
	}
	m.Failures = f.Ledger.Failures()
	if f.Checkpoint != "" || f.Store != "" || len(m.Failures) > 0 {
		m.Resume = f.resumeSummary()
	}
	m.FinishResources(f.start)
	for _, dir := range r.ManifestDirs {
		if dir == "" {
			continue
		}
		if err := m.Write(filepath.Join(dir, "manifest.json")); err != nil {
			return err
		}
	}
	if f.Store == "" {
		return nil
	}
	if err := m.Append(f.Store); err != nil {
		return err
	}
	slog.Info("run manifest appended to results store", "store", f.Store)
	return nil
}

func (f *RunFlags) resumeSummary() *obs.ResumeSummary {
	rs := f.Ledger.Summary()
	rs.Journal, rs.Resumed = f.Checkpoint, f.Resume
	return &rs
}

// writeExports writes the observer's exports into the -obs directory and
// returns their paths: lineage.jsonl only with -lineage, timeline.csv only
// with -timeline-tick.
func (f *RunFlags) writeExports() ([]string, error) {
	o := f.Observer
	var paths []string
	for _, file := range []struct {
		name  string
		on    bool
		write func(io.Writer) error
	}{
		{"events.jsonl", true, o.WriteJSONL},
		{"trace.json", true, o.WriteChromeTrace},
		{"metrics.om", true, func(w io.Writer) error { return obs.WriteOpenMetrics(w, o.Metrics.Snapshot()) }},
		{"lineage.jsonl", f.Lineage, o.WriteLineageJSONL},
		{"timeline.csv", *f.TimelineTick != 0, o.WriteTimelineCSV},
	} {
		if !file.on {
			continue
		}
		path := filepath.Join(f.Obs, file.name)
		out, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := file.write(out); err != nil {
			out.Close()
			return nil, fmt.Errorf("obs: %s: %w", file.name, err)
		}
		if err := out.Close(); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
