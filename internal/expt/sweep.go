package expt

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"freshcache/internal/eventsim"
	"freshcache/internal/network"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// This file is the deterministic worker-pool sweep runner the hot
// experiments fan out on. A Sweep enumerates one experiment's
// (preset × sweep point × scheme × replicate) cell grid in a fixed order,
// evaluates every cell on min(GOMAXPROCS, Parallel) workers, and assembles
// the results by cell index — so tables are byte-identical to a sequential
// run regardless of scheduling. Determinism rests on two invariants:
// every cell derives its own RNG seed from its grid coordinates (no shared
// mutable randomness), and generated traces are immutable once published
// by the cache (cells only read them).

// Cell identifies one unit of work in a sweep grid and carries its derived
// randomness.
type Cell struct {
	Experiment string
	Preset     string
	Point      int // index into the sweep's point axis
	Scheme     string
	Replicate  int

	// Seed drives the cell's protocol and workload randomness. It is
	// derived from (base seed, experiment, preset, point, scheme,
	// replicate) via stats.DeriveSeed, so it does not depend on which
	// worker runs the cell or in what order.
	Seed int64
	// TraceSeed seeds trace generation. It depends only on the base seed
	// and the replicate (via TraceSeedFor), so all cells of one replicate
	// share a trace: scheme and sweep-point comparisons are paired (common
	// trace), and the shared cache generates each trace once per process
	// instead of per cell.
	TraceSeed int64
}

// TraceSeedFor derives the trace-generation seed for one replicate as a
// namespaced child of the base seed. The naive base+replicate scheme it
// replaces aliased RNG streams across nearby base seeds (base S with
// replicate 1 collided with base S+1, replicate 0); hashing through
// DeriveSeed keeps the replicate-paired-trace property while making
// distinct (base, replicate) pairs independent. Changing this derivation
// changed every generated trace, so all experiment tables shifted relative
// to runs recorded before the fix.
func TraceSeedFor(base int64, rep int) int64 {
	return stats.DeriveSeed(base, "trace", strconv.Itoa(rep))
}

// CellFunc evaluates one cell and returns its metric vector. Every cell of
// a sweep must return the same number of metrics.
type CellFunc func(c Cell) ([]float64, error)

// Sweep describes one experiment's cell grid and its execution policy.
type Sweep struct {
	// Experiment is the stable ID mixed into every cell seed.
	Experiment string
	// Presets, Points and Schemes span the grid. An empty scheme axis
	// means a single implicit scheme "".
	Presets []string
	Points  int
	Schemes []string
	// Replicates is the number of independent runs per cell (default 1).
	// With R > 1 the result reports mean ± stderr.
	Replicates int
	// Parallel bounds the worker pool; the effective pool size is
	// min(GOMAXPROCS, Parallel), and 0 means GOMAXPROCS.
	Parallel int
	// BaseSeed is the experiment's base seed.
	BaseSeed int64
	// Journal, when non-nil, checkpoints each completed cell's metric
	// vector (synced record by record) and replays matching completed
	// cells instead of re-executing them, making interrupted runs
	// resumable with byte-identical output.
	Journal *Journal
	// Ledger, when non-nil, accounts every cell's disposition (executed,
	// replayed, failed, skipped) and collects the failure roster across
	// the run's sweeps. It is the one record of dispositions: the
	// manifest's resume summary, its failure roster and the registry's
	// sweep/cells_* counters are read from it.
	Ledger *Ledger
	// KeepGoing switches the runner from fail-fast to degradation mode:
	// cell failures no longer abort the sweep — the rest of the grid
	// still runs, failed cells leave explicit NA holes in the assembled
	// tables, and the failures land in the Ledger's roster.
	KeepGoing bool
	// Costs, when non-nil, records each executed cell's wall time (plus
	// alloc deltas and optional CPU profiles at a single worker) for the
	// cross-run results store. Measurement happens at cell boundaries
	// only; the simulation hot path is untouched.
	Costs *CellCosts
}

func (s Sweep) schemes() []string {
	if len(s.Schemes) == 0 {
		return []string{""}
	}
	return s.Schemes
}

func (s Sweep) replicates() int {
	if s.Replicates < 1 {
		return 1
	}
	return s.Replicates
}

func (s Sweep) workers(cells int) int {
	w := s.Parallel
	if w < 1 || w > runtime.GOMAXPROCS(0) {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cells {
		w = cells
	}
	if w < 1 {
		w = 1
	}
	return w
}

// cells enumerates the grid in deterministic order: preset-major, then
// point, scheme, replicate.
func (s Sweep) cells() []Cell {
	schemes := s.schemes()
	reps := s.replicates()
	out := make([]Cell, 0, len(s.Presets)*s.Points*len(schemes)*reps)
	for _, preset := range s.Presets {
		for pt := 0; pt < s.Points; pt++ {
			for _, scheme := range schemes {
				for rep := 0; rep < reps; rep++ {
					out = append(out, Cell{
						Experiment: s.Experiment,
						Preset:     preset,
						Point:      pt,
						Scheme:     scheme,
						Replicate:  rep,
						Seed: stats.DeriveSeed(s.BaseSeed, s.Experiment, preset,
							strconv.Itoa(pt), scheme, strconv.Itoa(rep)),
						TraceSeed: TraceSeedFor(s.BaseSeed, rep),
					})
				}
			}
		}
	}
	return out
}

// PanicError is the typed per-cell error a recovered CellFunc panic turns
// into: the process survives, the sweep reports the cell as failed, and
// the panic value plus its stack ride along for diagnosis.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("cell panicked: %v\n%s", e.Value, e.Stack)
}

// callCell invokes fn for one cell with panics recovered into a
// *PanicError, so a crashing cell body can never take down the process.
func callCell(fn CellFunc, c Cell) (v []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(c)
}

// cellErr wraps a cell failure with its grid coordinates.
func cellErr(c Cell, err error) error {
	return fmt.Errorf("expt: %s preset=%s point=%d scheme=%q replicate=%d: %w",
		c.Experiment, c.Preset, c.Point, c.Scheme, c.Replicate, err)
}

// Run evaluates every cell of the grid on the worker pool and returns the
// assembled result.
//
// Failure policy: a cell that panics is recovered into a typed error. A
// cell is a pure function of its seeds, so a failed cell is not retried.
// By default the sweep is fail-fast — the first failing cell (in grid
// order) determines the returned error and remaining cells are drained as
// skipped. With KeepGoing the whole grid still runs: failed cells leave NA
// holes in the result, the failures are recorded in the Ledger, and the
// returned error is nil (degradation is the caller's policy decision).
//
// Checkpointing: with a Journal attached, cells whose completed results
// are already journaled (matching identity, seeds and sweep fingerprint)
// are replayed without executing, and each newly completed cell is
// appended and synced before the sweep moves on.
func (s Sweep) Run(fn CellFunc) (*SweepResult, error) {
	if s.Points <= 0 {
		return nil, fmt.Errorf("expt: sweep %s has no points", s.Experiment)
	}
	if len(s.Presets) == 0 {
		return nil, fmt.Errorf("expt: sweep %s has no presets", s.Experiment)
	}
	cells := s.cells()
	fp := s.Fingerprint()
	runs := make([][]float64, len(cells))
	errs := make([]error, len(cells))

	// Replay journaled cells first: they cost nothing, and the worker pool
	// then only sees the remainder.
	var pending []int
	replayed := 0
	for i, c := range cells {
		if v, ok := s.Journal.Lookup(c, fp); ok {
			runs[i] = v
			replayed++
			continue
		}
		pending = append(pending, i)
	}
	s.Ledger.addReplayed(replayed)

	var failed atomic.Bool // a cell failed (fail-fast drain signal)
	var (
		jmu        sync.Mutex
		journalErr error // first checkpoint-append failure, if any
	)
	idx := make(chan int)
	var wg sync.WaitGroup
	// Single-worker detection gates alloc/profile measurement: ReadMemStats
	// deltas and the process-global CPU profiler only attribute correctly
	// when no other cell runs concurrently.
	single := s.workers(len(pending)) == 1
	for w := s.workers(len(pending)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if !s.KeepGoing && failed.Load() {
					s.Ledger.addSkipped()
					continue // drain: a cell already failed
				}
				var (
					v   []float64
					err error
				)
				if s.Costs != nil {
					v, err = s.Costs.measureCell(fn, cells[i], single)
				} else {
					v, err = callCell(fn, cells[i])
				}
				if err != nil {
					errs[i] = err
					failed.Store(true)
					s.Ledger.addFailure(cells[i], err)
					continue
				}
				runs[i] = v
				s.Ledger.addExecuted()
				if jerr := s.Journal.Record(cells[i], fp, v); jerr != nil {
					// A broken checkpoint must not pass silently: the run
					// finishes, but Run reports the journal failure.
					jmu.Lock()
					if journalErr == nil {
						journalErr = jerr
					}
					jmu.Unlock()
				}
			}
		}()
	}
	for _, i := range pending {
		idx <- i
	}
	close(idx)
	wg.Wait()

	if !s.KeepGoing {
		for i, err := range errs {
			if err != nil {
				return nil, cellErr(cells[i], err)
			}
		}
	}
	width := 0
	for i, v := range runs {
		if v == nil {
			continue // failed or skipped cell: NA hole
		}
		if width == 0 {
			width = len(v)
		}
		if len(v) != width {
			c := cells[i]
			return nil, fmt.Errorf("expt: %s preset=%s point=%d scheme=%q: metric vector length %d, want %d",
				c.Experiment, c.Preset, c.Point, c.Scheme, len(v), width)
		}
	}
	if journalErr != nil {
		return nil, journalErr
	}
	res := &SweepResult{sweep: s, reps: s.replicates(), width: width, runs: runs, replayed: replayed}
	return res, nil
}

// SweepResult holds every cell's metric vectors, addressable by grid
// coordinates (preset index, point, scheme index, metric index). Under
// KeepGoing, failed or skipped cells hold no vector: aggregates are taken
// over the surviving replicates, and a cell with none renders as an
// explicit "NA" hole.
type SweepResult struct {
	sweep    Sweep
	reps     int
	width    int
	runs     [][]float64 // grid order, replicate innermost; nil = failed/skipped
	replayed int         // cells replayed from the checkpoint journal
}

// Replicates returns the number of runs per cell.
func (r *SweepResult) Replicates() int { return r.reps }

// Metrics returns the per-cell metric vector length.
func (r *SweepResult) Metrics() int { return r.width }

func (r *SweepResult) base(preset, point, scheme int) int {
	nSchemes := len(r.sweep.schemes())
	if preset < 0 || preset >= len(r.sweep.Presets) ||
		point < 0 || point >= r.sweep.Points ||
		scheme < 0 || scheme >= nSchemes {
		panic(fmt.Sprintf("expt: sweep cell (%d,%d,%d) out of grid", preset, point, scheme))
	}
	return ((preset*r.sweep.Points+point)*nSchemes + scheme) * r.reps
}

// metricRuns collects the replicate values of one metric in one cell,
// skipping replicates lost to failures (keep-going NA holes); the result
// may therefore be shorter than the replicate count, or empty.
func (r *SweepResult) metricRuns(preset, point, scheme, metric int) []float64 {
	if r.width == 0 {
		// Every cell of the sweep failed; any metric index is a hole.
		r.base(preset, point, scheme) // still bounds-check the coordinates
		return nil
	}
	if metric < 0 || metric >= r.width {
		panic(fmt.Sprintf("expt: metric %d out of range (%d metrics)", metric, r.width))
	}
	base := r.base(preset, point, scheme)
	out := make([]float64, 0, r.reps)
	for rep := 0; rep < r.reps; rep++ {
		if v := r.runs[base+rep]; v != nil {
			out = append(out, v[metric])
		}
	}
	return out
}

// Mean returns the replicate mean of one cell metric (NaN when every
// replicate of the cell failed; tables render that as "NA").
func (r *SweepResult) Mean(preset, point, scheme, metric int) float64 {
	return stats.Mean(r.metricRuns(preset, point, scheme, metric))
}

// Stderr returns the standard error of the replicate mean (0 for a single
// replicate).
func (r *SweepResult) Stderr(preset, point, scheme, metric int) float64 {
	xs := r.metricRuns(preset, point, scheme, metric)
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := stats.Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
}

// CI95 returns the 95% confidence half-width of the replicate mean.
func (r *SweepResult) CI95(preset, point, scheme, metric int) float64 {
	return stats.CI95(r.metricRuns(preset, point, scheme, metric))
}

// Value returns the cell metric as a table cell: the plain value for a
// single replicate, "mean±stderr" otherwise, and the explicit "NA" hole
// when every replicate of the cell failed.
func (r *SweepResult) Value(preset, point, scheme, metric int) any {
	xs := r.metricRuns(preset, point, scheme, metric)
	if len(xs) == 0 {
		return "NA"
	}
	if r.reps == 1 {
		return r.Mean(preset, point, scheme, metric)
	}
	return fmt.Sprintf("%s±%s",
		CellValue(r.Mean(preset, point, scheme, metric)),
		CellValue(r.Stderr(preset, point, scheme, metric)))
}

// ReplayedCells reports how many cells were replayed from the checkpoint
// journal instead of executing.
func (r *SweepResult) ReplayedCells() int { return r.replayed }

// TraceCache memoizes generated traces by (name, seed) so a sweep's cells
// — and successive experiments over the same trace — share one immutable
// trace and its compiled contact timeline instead of regenerating and
// recompiling them. Generation and compilation are single-flight: under a
// concurrent sweep exactly one worker does each, the rest wait.
type TraceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry
}

type traceKey struct {
	name string
	seed int64
}

type traceEntry struct {
	once sync.Once
	tr   *trace.Trace
	tl   []eventsim.StaticEvent
	err  error
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{entries: make(map[traceKey]*traceEntry)}
}

// Get returns the trace cached under (key, seed) and its static contact
// timeline (network.CompileTimeline), invoking gen and compiling exactly
// once per key. The caller promises gen is deterministic for the key; the
// trace and the timeline are shared read-only by every cell that replays
// them and must never be mutated.
func (c *TraceCache) Get(key string, seed int64, gen func(seed int64) (*trace.Trace, error)) (*trace.Trace, []eventsim.StaticEvent, error) {
	e := c.entry(key, seed)
	e.once.Do(func() {
		if e.tr, e.err = gen(seed); e.err == nil {
			e.tl = network.CompileTimeline(e.tr)
		}
	})
	return e.tr, e.tl, e.err
}

func (c *TraceCache) entry(key string, seed int64) *traceEntry {
	k := traceKey{name: key, seed: seed}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		e = &traceEntry{}
		c.entries[k] = e
	}
	return e
}

// Len reports how many traces the cache holds (including failed entries).
func (c *TraceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// sharedTraces is the process-wide cache the experiment suite runs on.
var sharedTraces = NewTraceCache()
