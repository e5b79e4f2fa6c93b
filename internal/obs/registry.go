// Package obs is the run-observability layer of the simulator: a metric
// registry (counters and gauges with atomic hot-path recording, and
// fixed-bucket histograms merged from each run), a structured per-run
// event trace with ring-buffer storage and sampling, Chrome trace-event
// export (loadable in Perfetto / chrome://tracing), and run manifests
// that make every results file reproducible.
//
// Everything is nil-safe: a nil *Registry hands out nil metrics, and every
// recording method on a nil receiver is a no-op. Hot paths therefore
// record unconditionally — the disabled path costs one predictable branch
// per call, nothing else.
package obs

import (
	"math"
	"sync"
	"sync/atomic"

	"freshcache/internal/metrics"
)

// Counter is a monotonically increasing atomic counter. Safe for
// concurrent use; all methods are no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value. Safe for concurrent use;
// all methods are no-ops on a nil receiver.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a named collection of counters, gauges and histograms shared
// by one run, sweep or process. Counter and gauge handles are resolved once
// (under a lock) and then recorded to lock-free; a histogram is filled by
// merging run-local metrics.Hist values into it. A nil *Registry hands out
// nil handles and ignores merges, so callers need no enabled/disabled
// branches of their own.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*metrics.Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*metrics.Hist),
	}
}

// Counter returns the named counter, creating it on first use. Nil
// registries return a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil registries
// return a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// MergeHist folds h into the named histogram, which starts as a copy of
// the first h merged. A run samples into a histogram of its own and merges
// it once, when it ends, so an observation costs no lock and no atomic.
func (r *Registry) MergeHist(name string, h *metrics.Hist) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if dst, ok := r.hists[name]; ok {
		dst.Merge(h)
	} else {
		r.hists[name] = h.Clone()
	}
}

// DepthBuckets returns power-of-two bucket bounds for queue-depth style
// histograms (1 .. 64k).
func DepthBuckets() []float64 {
	b := make([]float64, 17)
	for i := range b {
		b[i] = float64(uint(1) << i)
	}
	return b
}

// RegistrySnapshot is a point-in-time copy of every registered metric.
// Maps marshal with sorted keys under encoding/json, so serialized
// snapshots are deterministic.
type RegistrySnapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]metrics.Hist `json:"histograms,omitempty"`
}

// Snapshot copies the registry state (empty snapshot for nil).
func (r *Registry) Snapshot() RegistrySnapshot {
	var s RegistrySnapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]metrics.Hist, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = *h.Clone()
		}
	}
	return s
}
