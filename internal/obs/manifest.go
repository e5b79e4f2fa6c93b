package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"freshcache/internal/metrics"
)

// Manifest records everything needed to reproduce a results file: the
// exact command and configuration, the seeds, the toolchain and source
// revision, and the run's resource usage. One is written next to each
// run's CSVs as manifest.json, and the same value is the line a run
// appends to the cross-run results store (Append, ReadStore).
type Manifest struct {
	Schema    string `json:"schema"` // "freshcache-manifest/1"
	Tool      string `json:"tool"`   // "experiments" | "freshsim"
	CreatedAt string `json:"createdAt"`

	Command []string `json:"command,omitempty"`

	GoVersion   string `json:"goVersion"`
	GitRevision string `json:"gitRevision,omitempty"`
	GitModified bool   `json:"gitModified,omitempty"`
	OS          string `json:"os"`
	Arch        string `json:"arch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`

	Seed   int64          `json:"seed"`
	Config map[string]any `json:"config,omitempty"`
	// ConfigDigest hashes the configuration that determines results (see
	// ConfigDigest), so runs differing only in execution policy compare
	// as the same configuration.
	ConfigDigest string `json:"configDigest,omitempty"`

	Outputs []string `json:"outputs,omitempty"`

	WallClockSeconds float64 `json:"wallClockSeconds"`
	CPUSeconds       float64 `json:"cpuSeconds,omitempty"`
	MaxRSSBytes      int64   `json:"maxRSSBytes,omitempty"`

	Metrics     *RegistrySnapshot      `json:"metrics,omitempty"`
	Events      *EventStats            `json:"events,omitempty"`
	SchemeStats []metrics.SchemeRollup `json:"schemeRollups,omitempty"`

	// Failures is the roster of sweep cells that failed during the run —
	// populated by degradation-tolerant runs (-keep-going) so partial
	// tables are auditable.
	Failures []CellFailure `json:"cellFailures,omitempty"`
	// Resume records checkpoint/resume provenance: which journal the run
	// wrote (or replayed), and how many cells were replayed vs executed.
	Resume *ResumeSummary `json:"resume,omitempty"`
	// Cells is the per-cell cost attribution in grid order; its wall and
	// alloc values are machine-dependent.
	Cells []CellCost `json:"cells,omitempty"`
}

// CellFailure identifies one sweep cell that failed, by its grid
// coordinates, with its error.
type CellFailure struct {
	Experiment string `json:"experiment"`
	Preset     string `json:"preset"`
	Point      int    `json:"point"`
	Scheme     string `json:"scheme"`
	Replicate  int    `json:"replicate"`
	Error      string `json:"error"`
}

// CellCost attributes one sweep cell's execution cost: wall time always,
// allocation deltas (runtime.ReadMemStats before/after the cell) only when
// the sweep ran on a single worker — cross-worker interference would make
// them noise otherwise.
type CellCost struct {
	Experiment  string  `json:"experiment"`
	Preset      string  `json:"preset"`
	Point       int     `json:"point"`
	Scheme      string  `json:"scheme"`
	Replicate   int     `json:"replicate"`
	WallSeconds float64 `json:"wallSeconds"`
	Mallocs     uint64  `json:"mallocs,omitempty"`
	AllocBytes  uint64  `json:"allocBytes,omitempty"`
}

// ResumeSummary records a run's checkpoint/resume provenance: the journal
// path and the per-disposition cell counts. Replayed + executed + failed +
// skipped covers every grid cell of the run's sweeps.
type ResumeSummary struct {
	Journal       string `json:"journal,omitempty"`
	Resumed       bool   `json:"resumed,omitempty"`
	CellsReplayed int    `json:"cellsReplayed"`
	CellsExecuted int    `json:"cellsExecuted"`
	CellsFailed   int    `json:"cellsFailed"`
	CellsSkipped  int    `json:"cellsSkipped"`
}

// ManifestSchema is the current manifest schema identifier.
const ManifestSchema = "freshcache-manifest/1"

// NewManifest returns a manifest pre-filled with build/runtime provenance.
func NewManifest(tool string) *Manifest {
	m := &Manifest{
		Schema:     ManifestSchema,
		Tool:       tool,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitRevision = s.Value
			case "vcs.modified":
				m.GitModified = s.Value == "true"
			}
		}
	}
	return m
}

// FinishResources stamps the manifest with elapsed wall time since start
// and the process's accumulated CPU time and peak RSS (where the platform
// exposes them).
func (m *Manifest) FinishResources(start time.Time) {
	m.WallClockSeconds = time.Since(start).Seconds()
	cpu, rss := readRusage()
	m.CPUSeconds = cpu
	m.MaxRSSBytes = rss
}

// Write marshals the manifest (indented, sorted keys) to path.
func (m *Manifest) Write(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Append durably appends the manifest as one JSON line to the cross-run
// results store at path, creating the file and its directory if needed.
// The line is a single O_APPEND write synced before Append returns, so
// concurrent appenders interleave whole lines and a crash can tear at
// most the trailing one, which ReadStore tolerates. A manifest under
// another schema is refused: ReadStore would refuse the whole store.
func (m *Manifest) Append(path string) error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("store: manifest schema %q, want %q", m.Schema, ManifestSchema)
	}
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: marshal manifest: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = f.Write(append(b, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// ReadStore loads every manifest of a results store in append order. A
// malformed trailing line, the torn write of a crashed appender, is
// dropped. A malformed line anywhere else, or a line whose schema is not
// ManifestSchema (the retired freshcache-store/1 records among them), is
// an error: whole-line appends mean mid-file damage is real, and a
// foreign schema must be refused rather than misread.
func ReadStore(path string) ([]Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var ms []Manifest
	lineNo, tornLine := 0, 0
	var tornErr error
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if tornErr != nil {
			// The malformed line was not trailing after all.
			return nil, fmt.Errorf("store: %s:%d: %w", path, tornLine, tornErr)
		}
		var m Manifest
		if err := json.Unmarshal(line, &m); err != nil {
			tornErr, tornLine = err, lineNo
			continue
		}
		if m.Schema != ManifestSchema {
			return nil, fmt.Errorf("store: %s:%d: unsupported schema %q (want %q)",
				path, lineNo, m.Schema, ManifestSchema)
		}
		ms = append(ms, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return ms, nil
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

// WriteToolManifest writes the minimal provenance manifest the auxiliary
// trace tools emit under their -obs flag: the exact command line, seed,
// output files, toolchain and resource usage — enough to reproduce an
// artifact, without the simulation-only sections (metrics, events,
// scheme roll-ups). The directory is created if needed.
func WriteToolManifest(dir, tool string, args []string, seed int64, outputs []string, start time.Time) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m := NewManifest(tool)
	m.Command = append([]string{tool}, args...)
	m.Seed = seed
	m.Outputs = outputs
	m.FinishResources(start)
	return m.Write(filepath.Join(dir, "manifest.json"))
}

// ReadManifest parses a manifest.json previously written by Write.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("manifest %s: unsupported schema %q (want %q)", path, m.Schema, ManifestSchema)
	}
	return &m, nil
}
