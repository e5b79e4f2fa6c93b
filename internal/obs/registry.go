// Package obs is the run-observability layer of the simulator: a metric
// registry (counters, gauges, fixed-bucket histograms) with atomic
// hot-path recording, a structured per-run event trace with ring-buffer
// storage and sampling, Chrome trace-event export (loadable in Perfetto /
// chrome://tracing), and run manifests that make every results file
// reproducible.
//
// Everything is nil-safe: a nil *Registry hands out nil metrics, and every
// recording method on a nil receiver is a no-op. Hot paths therefore
// record unconditionally — the disabled path costs one predictable branch
// per call, nothing else.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
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

// Histogram is a fixed-bucket histogram with atomic recording: counts[i]
// holds observations <= Bounds[i], the final bucket holds the overflow.
// Bounds are fixed at registration, so concurrent Observe calls are plain
// atomic adds with no locking.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1
	total   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-added
	minBits atomic.Uint64 // float64 bits, CAS-min (seeded +Inf)
	maxBits atomic.Uint64 // float64 bits, CAS-max (seeded -Inf)
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns how many values were observed (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// HistogramSnapshot is a point-in-time copy of a histogram's state. Sum,
// Min and Max are exact (not bucket-midpoint estimates), so Sum/Total is
// the true mean; Min/Max are 0 when Total is 0.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last bucket is overflow
	Total  uint64    `json:"total"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Snapshot copies the histogram state. Concurrent Observe calls may land
// between bucket reads; totals are therefore approximate while recording
// is in flight and exact once it stops.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Total:  h.total.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	if s.Total > 0 {
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry is a named collection of counters, gauges and histograms shared
// by one run, sweep or process. Metric handles are resolved once (under a
// lock) and then recorded to lock-free; a nil *Registry hands out nil
// handles, so callers need no enabled/disabled branches of their own.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
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

// Histogram returns the named histogram, creating it with the given bucket
// bounds (ascending) on first use; later calls ignore the bounds argument.
// Nil registries return a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
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
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
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
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}
