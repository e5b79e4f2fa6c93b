package expt

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"freshcache/internal/obs"
)

// This file is the per-cell cost-attribution layer of the sweep runner:
// wall time and (at a single worker) allocation deltas for every executed
// cell, plus optional CPU profiles of the most expensive cells. All
// measurement happens at cell boundaries — the simulation hot path is
// untouched, so the PR8 alloc gates are unaffected.

// CellProfile pairs one cell's cost record with its captured CPU profile
// (pprof binary format).
type CellProfile struct {
	Cost obs.CellCost
	Data []byte
}

// CellCosts collects per-cell execution costs across a run's sweeps for
// the cross-run results store. Wall time is recorded for every executed
// cell; allocation deltas and CPU profiles only when the collector was
// built with trackAllocs (which the CLI grants only at an effective
// single worker — ReadMemStats deltas and the process-global CPU profiler
// are both meaningless under concurrency). Methods are nil-safe.
type CellCosts struct {
	mu          sync.Mutex
	costs       []obs.CellCost
	profiles    []CellProfile // kept sorted by wall time, descending
	profileTop  int           // retain the N most expensive cells' profiles
	trackAllocs bool
	profErr     error // first StartCPUProfile failure; disables profiling
	profOff     bool
	now         func() time.Time // the wall clock cells are timed by
}

// NewCellCosts returns a collector. profileTop > 0 retains the CPU
// profiles of the profileTop most expensive cells (by wall time);
// trackAllocs enables ReadMemStats deltas and profiling, and must only be
// set when cells run strictly sequentially.
func NewCellCosts(profileTop int, trackAllocs bool) *CellCosts {
	return &CellCosts{profileTop: profileTop, trackAllocs: trackAllocs, now: time.Now}
}

// measured reports whether the collector wants single-worker measurement
// (alloc deltas, profiles). Nil-safe.
func (cc *CellCosts) measureAllocs() bool {
	return cc != nil && cc.trackAllocs
}

func (cc *CellCosts) profileEnabled() bool {
	if cc == nil || !cc.trackAllocs || cc.profileTop <= 0 {
		return false
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return !cc.profOff
}

// disableProfiling records the first profiler failure — typically a global
// -cpuprofile already owning the process profiler — and stops trying.
func (cc *CellCosts) disableProfiling(err error) {
	cc.mu.Lock()
	if cc.profErr == nil {
		cc.profErr = err
	}
	cc.profOff = true
	cc.mu.Unlock()
}

// ProfileErr returns the first profiler failure, if profiling was
// requested but could not run. Nil-safe.
func (cc *CellCosts) ProfileErr() error {
	if cc == nil {
		return nil
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.profErr
}

// add records one executed cell's cost and, optionally, its CPU profile.
// Nil-safe.
func (cc *CellCosts) add(cost obs.CellCost, profile []byte) {
	if cc == nil {
		return
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.costs = append(cc.costs, cost)
	if profile == nil || cc.profileTop <= 0 {
		return
	}
	cc.profiles = append(cc.profiles, CellProfile{Cost: cost, Data: profile})
	sort.SliceStable(cc.profiles, func(i, j int) bool {
		return cc.profiles[i].Cost.WallSeconds > cc.profiles[j].Cost.WallSeconds
	})
	if len(cc.profiles) > cc.profileTop {
		cc.profiles = cc.profiles[:cc.profileTop]
	}
}

// Cells returns every recorded cost in deterministic grid order
// (experiment, preset, point, scheme, replicate) — workers may finish out
// of order, the manifest must not. Nil-safe.
func (cc *CellCosts) Cells() []obs.CellCost {
	if cc == nil {
		return nil
	}
	cc.mu.Lock()
	out := make([]obs.CellCost, len(cc.costs))
	copy(out, cc.costs)
	cc.mu.Unlock()
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

// Profiles returns the retained CPU profiles, most expensive first.
// Nil-safe.
func (cc *CellCosts) Profiles() []CellProfile {
	if cc == nil {
		return nil
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	out := make([]CellProfile, len(cc.profiles))
	copy(out, cc.profiles)
	return out
}

// measureCell runs one cell under the collector's measurement policy and
// returns the result plus the filled cost record and optional profile. The
// caller guarantees single-worker execution when alloc tracking is on.
func (cc *CellCosts) measureCell(fn CellFunc, c Cell, single bool) ([]float64, error) {
	allocs := single && cc.measureAllocs()
	profile := allocs && cc.profileEnabled()

	var buf bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			cc.disableProfiling(err)
			profile = false
		}
	}
	var before runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&before)
	}
	start := cc.now()
	v, err := callCell(fn, c)
	wall := cc.now().Sub(start)
	cost := obs.CellCost{
		Experiment:  c.Experiment,
		Preset:      c.Preset,
		Point:       c.Point,
		Scheme:      c.Scheme,
		Replicate:   c.Replicate,
		WallSeconds: wall.Seconds(),
	}
	if allocs {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		cost.Mallocs = after.Mallocs - before.Mallocs
		cost.AllocBytes = after.TotalAlloc - before.TotalAlloc
	}
	var prof []byte
	if profile {
		pprof.StopCPUProfile()
		prof = append([]byte(nil), buf.Bytes()...)
	}
	if err == nil {
		cc.add(cost, prof)
	}
	return v, err
}
