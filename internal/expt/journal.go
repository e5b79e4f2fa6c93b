package expt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"freshcache/internal/obs"
)

// This file is the crash-safety layer of the sweep runner: an append-only
// per-cell checkpoint journal (JSONL) written as cells complete, and the
// Ledger that accounts every cell's disposition (executed, replayed from
// the journal, failed, drained) across a run's sweeps. A run interrupted
// at any point — including SIGKILL — can be relaunched with the same
// journal and replays completed cells instead of re-executing them; the
// assembled tables are byte-identical to an uninterrupted run because
// cells carry their own derived seeds and results are assembled in grid
// order regardless of which cells actually ran.

// journalSchema versions the journal record format. Bump it to invalidate
// journals across incompatible changes; stale records are simply not
// replayed (the cells re-execute), never misinterpreted.
const journalSchema = "freshcache-checkpoint/1"

// journalRecord is one completed cell: its grid coordinates, the seeds it
// derived, the fingerprint of the sweep configuration it belongs to, and
// its metric vector. A record replays into a resumed sweep only when the
// coordinates, both seeds and the fingerprint all match — so resuming
// with different flags (seed, -quick, -replicates, a changed grid) safely
// re-executes instead of splicing mismatched results.
type journalRecord struct {
	Schema      string    `json:"schema"`
	Experiment  string    `json:"experiment"`
	Preset      string    `json:"preset"`
	Point       int       `json:"point"`
	Scheme      string    `json:"scheme"`
	Replicate   int       `json:"replicate"`
	Seed        int64     `json:"seed"`
	TraceSeed   int64     `json:"traceSeed"`
	Fingerprint string    `json:"fingerprint"`
	Metrics     []float64 `json:"metrics"`
}

// key returns the record's stable cell identity.
func (r journalRecord) key() string {
	return cellKey(r.Experiment, r.Preset, r.Point, r.Scheme, r.Replicate)
}

func cellKey(experiment, preset string, point int, scheme string, replicate int) string {
	return fmt.Sprintf("%s\x1f%s\x1f%d\x1f%s\x1f%d", experiment, preset, point, scheme, replicate)
}

// Journal is an append-only per-cell checkpoint file shared by every sweep
// of a run. Appends are serialized and synced to disk record by record, so
// a crash loses at most the cell in flight; a truncated trailing line from
// a mid-write crash is tolerated on load. Safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	seen map[string]journalRecord
}

// OpenJournal opens (or creates) the checkpoint journal at path. With
// resume set, previously completed cells are loaded for replay and new
// records append after them; otherwise the journal is truncated so a fresh
// run never splices stale cells.
func OpenJournal(path string, resume bool) (*Journal, error) {
	if dir := filepath.Dir(path); dir != "" && dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("expt: checkpoint dir: %w", err)
		}
	}
	j := &Journal{path: path, seen: make(map[string]journalRecord)}
	if resume {
		if err := j.load(); err != nil {
			return nil, err
		}
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("expt: checkpoint journal: %w", err)
	}
	j.f = f
	return j, nil
}

// load reads the existing journal, keeping the last valid record per cell.
// Malformed lines — most commonly a partial trailing line written at the
// instant of a crash — are skipped, not fatal: losing one checkpoint only
// costs re-executing that cell.
func (j *Journal) load() error {
	f, err := os.Open(j.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("expt: checkpoint journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			continue // torn write from a crash; the cell will re-execute
		}
		if rec.Schema != journalSchema {
			continue
		}
		j.seen[rec.key()] = rec
	}
	return sc.Err()
}

// Len reports how many completed cells the journal holds. Nil-safe.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.seen)
}

// Path returns the journal's file path ("" for a nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Lookup returns the journaled metric vector for a cell, if a record with
// matching identity, seeds and sweep fingerprint exists. Nil-safe.
func (j *Journal) Lookup(c Cell, fingerprint string) ([]float64, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.seen[cellKey(c.Experiment, c.Preset, c.Point, c.Scheme, c.Replicate)]
	if !ok || rec.Fingerprint != fingerprint || rec.Seed != c.Seed || rec.TraceSeed != c.TraceSeed {
		return nil, false
	}
	return rec.Metrics, true
}

// Record appends one completed cell and syncs it to disk, so a subsequent
// crash — even SIGKILL — cannot lose it. Nil-safe.
func (j *Journal) Record(c Cell, fingerprint string, metrics []float64) error {
	if j == nil {
		return nil
	}
	rec := journalRecord{
		Schema:      journalSchema,
		Experiment:  c.Experiment,
		Preset:      c.Preset,
		Point:       c.Point,
		Scheme:      c.Scheme,
		Replicate:   c.Replicate,
		Seed:        c.Seed,
		TraceSeed:   c.TraceSeed,
		Fingerprint: fingerprint,
		Metrics:     metrics,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("expt: checkpoint record: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("expt: checkpoint append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("expt: checkpoint sync: %w", err)
	}
	j.seen[rec.key()] = rec
	return nil
}

// Close flushes and closes the journal file. Nil-safe.
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}

// Ledger accounts every sweep cell's disposition across a run and collects
// the failure roster for the run manifest. One ledger is shared by all
// sweeps of a CLI invocation; all methods are nil-safe and safe for
// concurrent use.
type Ledger struct {
	mu       sync.Mutex
	failures []obs.CellFailure
	replayed int
	executed int
	skipped  int
}

func (l *Ledger) addReplayed(n int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.replayed += n
	l.mu.Unlock()
}

func (l *Ledger) addExecuted() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.executed++
	l.mu.Unlock()
}

func (l *Ledger) addSkipped() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.skipped++
	l.mu.Unlock()
}

func (l *Ledger) addFailure(c Cell, err error) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.failures = append(l.failures, obs.CellFailure{
		Experiment: c.Experiment,
		Preset:     c.Preset,
		Point:      c.Point,
		Scheme:     c.Scheme,
		Replicate:  c.Replicate,
		Error:      err.Error(),
	})
	l.mu.Unlock()
}

// Failures returns the failure roster in deterministic grid order
// (experiment, preset, point, scheme, replicate).
func (l *Ledger) Failures() []obs.CellFailure {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]obs.CellFailure, len(l.failures))
	copy(out, l.failures)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Preset != b.Preset {
			return a.Preset < b.Preset
		}
		if a.Point != b.Point {
			return a.Point < b.Point
		}
		if a.Scheme != b.Scheme {
			return a.Scheme < b.Scheme
		}
		return a.Replicate < b.Replicate
	})
	return out
}

// Summary returns the ledger's per-disposition cell counts as manifest
// resume provenance (journal path and resumed flag are the caller's).
func (l *Ledger) Summary() obs.ResumeSummary {
	if l == nil {
		return obs.ResumeSummary{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return obs.ResumeSummary{
		CellsReplayed: l.replayed,
		CellsExecuted: l.executed,
		CellsFailed:   len(l.failures),
		CellsSkipped:  l.skipped,
	}
}

// AddTo adds the ledger's cell counts to r as the sweep/cells_* counters:
// done (executed), failed, skipped and replayed, and queued, their sum.
// RunFlags.Finish calls it once, after the run's last sweep, so the
// registry carries the same counts as the manifest's resume summary.
func (l *Ledger) AddTo(r *obs.Registry) {
	s := l.Summary()
	r.Add("sweep/cells_queued", int64(s.CellsExecuted+s.CellsFailed+s.CellsSkipped+s.CellsReplayed))
	r.Add("sweep/cells_done", int64(s.CellsExecuted))
	r.Add("sweep/cells_failed", int64(s.CellsFailed))
	r.Add("sweep/cells_skipped", int64(s.CellsSkipped))
	r.Add("sweep/cells_replayed", int64(s.CellsReplayed))
}

// Fingerprint hashes the sweep's grid-defining configuration (experiment,
// base seed, axes, replicate count). Journal records replay only into a
// sweep with an identical fingerprint, so a journal written by one
// configuration can never corrupt a differently-shaped resume.
func (s Sweep) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d|", journalSchema, s.Experiment, s.BaseSeed, s.Points, s.replicates())
	for _, p := range s.Presets {
		h.Write([]byte(p))
		h.Write([]byte{0x1f})
	}
	h.Write([]byte{'|'})
	for _, sch := range s.schemes() {
		h.Write([]byte(sch))
		h.Write([]byte{0x1f})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
