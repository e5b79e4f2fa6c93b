// Package store is the persistent cross-run results index of the
// simulator: an append-only, fsync'd, schema-versioned JSONL file every
// obs-enabled invocation appends one record to. A record joins the run's
// manifest provenance (command, seed, config digest, toolchain, VCS
// revision) with its final metric snapshot flattened to queryable names,
// histogram roll-ups, per-cell cost attribution and the ledger's cell
// dispositions — enough to plot any stored metric's trajectory across
// invocations (`obsreport trend`) or gate a fresh run against history
// (`obsreport gate`) without re-running anything.
//
// Durability follows the checkpoint journal's contract: each record is a
// single O_APPEND write synced before the writer returns, so concurrent
// appenders interleave whole records and a crash can tear at most the
// trailing line, which the reader tolerates. A record carrying a foreign
// schema version is a hard read error — history written by an
// incompatible future version must be refused, never misread.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"freshcache/internal/obs"
)

// Schema versions the store record format. Bump it across incompatible
// record changes; readers refuse foreign versions outright.
const Schema = "freshcache-store/1"

// Record is one stored invocation: provenance joined with results.
//
// Determinism contract: for a fixed seed and configuration, every field
// except the provenance/timing ones (CreatedAt, GoVersion, GitRevision,
// GitModified, OS, Arch, WallClockSeconds, and the wall/alloc numbers
// inside Cells) is byte-identical across repeated runs and worker counts —
// the trend/gate tooling relies on Metrics being comparable across
// history.
type Record struct {
	Schema    string   `json:"schema"`
	Tool      string   `json:"tool"`
	CreatedAt string   `json:"createdAt"`
	Command   []string `json:"command,omitempty"`

	Seed int64 `json:"seed"`
	// ConfigDigest is a stable hash of the run's configuration (the same
	// map the manifest records), so history can be filtered to comparable
	// invocations without string-matching whole command lines.
	ConfigDigest string `json:"configDigest,omitempty"`

	GoVersion   string `json:"goVersion,omitempty"`
	GitRevision string `json:"gitRevision,omitempty"`
	GitModified bool   `json:"gitModified,omitempty"`
	OS          string `json:"os,omitempty"`
	Arch        string `json:"arch,omitempty"`

	WallClockSeconds float64 `json:"wallClockSeconds,omitempty"`

	// Metrics is the flattened, queryable metric snapshot: registry
	// counters and gauges under their registry names and per-scheme
	// roll-up ratios under "scheme/<name>/...". Trend and gate address
	// metrics by these keys.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Histograms carries the registry's histogram snapshots (bounds,
	// cumulative counts, exact sum/min/max).
	Histograms map[string]obs.HistogramSnapshot `json:"histograms,omitempty"`
	// Cells is the per-cell cost attribution in deterministic grid order
	// (wall/alloc values themselves are machine-dependent).
	Cells []obs.CellCost `json:"cells,omitempty"`
	// Resume is the ledger's cell-disposition accounting.
	Resume *obs.ResumeSummary `json:"resume,omitempty"`
}

// NewRecord returns a record pre-filled with build/runtime provenance,
// mirroring obs.NewManifest.
func NewRecord(tool string) *Record {
	r := &Record{
		Schema:    Schema,
		Tool:      tool,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				r.GitRevision = s.Value
			case "vcs.modified":
				r.GitModified = s.Value == "true"
			}
		}
	}
	return r
}

// Append durably appends one record to the store at path, creating the
// file (and its directory) if needed. The record is written as a single
// O_APPEND write and synced before Append returns, so concurrent
// appenders — sweep workers, parallel CI jobs — interleave whole records
// and a crash cannot leave more than a torn trailing line.
func Append(path string, rec *Record) error {
	if rec.Schema == "" {
		rec.Schema = Schema
	}
	if rec.Schema != Schema {
		return fmt.Errorf("store: record schema %q, want %q", rec.Schema, Schema)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: marshal record: %w", err)
	}
	b = append(b, '\n')
	if dir := filepath.Dir(path); dir != "" && dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("store: dir: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("store: append: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync: %w", err)
	}
	return f.Close()
}

// Read loads every record of the store in append order. A malformed
// trailing line — the torn write of a crashed appender — is tolerated and
// dropped; a malformed line anywhere else, or any record carrying a
// schema version other than Schema, is an error: whole-record appends
// mean mid-file corruption is real damage, and foreign versions must be
// refused rather than misread.
func Read(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var recs []Record
	lineNo, tornLine := 0, 0
	var tornErr error
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if tornErr != nil {
			// The malformed line was not trailing after all.
			return nil, fmt.Errorf("store: %s:%d: %w", path, tornLine, tornErr)
		}
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			tornErr, tornLine = err, lineNo
			continue
		}
		if rec.Schema != Schema {
			return nil, fmt.Errorf("store: %s:%d: unsupported schema %q (want %q)",
				path, lineNo, rec.Schema, Schema)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return recs, nil
}

// Point is one run's value of a queried metric, in store (append) order.
type Point struct {
	Index       int // record index in the store
	CreatedAt   string
	Tool        string
	GitRevision string
	Value       float64
}

// Series extracts one metric's trajectory across the records: one point
// per record that carries the metric, in append order.
func Series(recs []Record, metric string) []Point {
	var out []Point
	for i, r := range recs {
		v, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		out = append(out, Point{
			Index:       i,
			CreatedAt:   r.CreatedAt,
			Tool:        r.Tool,
			GitRevision: r.GitRevision,
			Value:       v,
		})
	}
	return out
}

// Filter returns the records matching a tool name ("" matches all).
func Filter(recs []Record, tool string) []Record {
	if tool == "" {
		return recs
	}
	var out []Record
	for _, r := range recs {
		if r.Tool == tool {
			out = append(out, r)
		}
	}
	return out
}

// ConfigDigest hashes a configuration map into a stable hex digest
// (json.Marshal sorts map keys, so equal maps always digest equally). CLIs
// should digest result-determining configuration only, so runs differing
// merely in execution policy compare as the same configuration.
func ConfigDigest(cfg map[string]any) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// FlattenMetrics flattens a registry snapshot and per-scheme roll-ups into
// the store's queryable metric map: counters and gauges under their
// registry names, scheme roll-ups under "scheme/<name>/...".
func FlattenMetrics(snap obs.RegistrySnapshot, rollups []obs.SchemeRollup) map[string]float64 {
	m := make(map[string]float64, len(snap.Counters)+len(snap.Gauges)+6*len(rollups))
	for k, v := range snap.Counters {
		m[k] = float64(v)
	}
	for k, v := range snap.Gauges {
		m[k] = v
	}
	for _, r := range rollups {
		p := "scheme/" + r.Scheme + "/"
		m[p+"transmissions"] = float64(r.Transmissions)
		m[p+"deliveries"] = float64(r.Deliveries)
		m[p+"versions_generated"] = float64(r.VersionsGenerated)
		if r.Deliveries > 0 {
			m[p+"tx_per_delivery"] = float64(r.Transmissions) / float64(r.Deliveries)
		}
		if r.DeliveryDelayHist != nil {
			m[p+"mean_delay_s"] = r.DeliveryDelayHist.Mean()
		}
		if r.RefreshAgeHist != nil {
			m[p+"mean_age_s"] = r.RefreshAgeHist.Mean()
		}
	}
	return m
}

// MetricNames returns the sorted union of metric names across the records.
func MetricNames(recs []Record) []string {
	seen := make(map[string]bool)
	for _, r := range recs {
		for name := range r.Metrics {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
