// Package obs is the run-observability layer of the simulator: a metric
// registry of run totals, a structured per-run event trace with
// ring-buffer storage and sampling, causal lineage spans, a
// simulated-time telemetry timeline, Chrome trace-event export (loadable
// in Perfetto / chrome://tracing), OpenMetrics export, and run manifests
// that make every results file reproducible.
//
// Everything is nil-safe: every recording method on a nil receiver is a
// no-op. Hot paths therefore record unconditionally — the disabled path
// costs one predictable branch per call, nothing else.
package obs

import (
	"maps"
	"sync"
)

// Registry is a set of named int64 counters shared by every run of a
// process. It holds totals, not live values: a run adds its own once it
// has succeeded, and the sweep's cell dispositions are added once the
// run's sweeps are over, so a failed run adds nothing and the totals do
// not depend on how many sweep workers ran. Safe for concurrent use; a nil
// *Registry ignores every Add.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]int64)}
}

// Add adds n to the named counter, which starts at 0; adding 0 names the
// counter without moving it.
func (r *Registry) Add(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += n
	r.mu.Unlock()
}

// RegistrySnapshot is a copy of every counter. Maps marshal with sorted
// keys under encoding/json, so serialized snapshots are deterministic.
// Manifests from builds that also kept gauges and histograms decode into
// it with those keys ignored.
type RegistrySnapshot struct {
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Snapshot copies the registry state (empty snapshot for nil).
func (r *Registry) Snapshot() RegistrySnapshot {
	if r == nil {
		return RegistrySnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return RegistrySnapshot{Counters: maps.Clone(r.counters)}
}
