package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// RunStats accumulates execution statistics across the simulation runs
// ("cells") of one experiment or sweep: discrete events processed by the
// event engine, transmissions by kind, summed per-run wall time, and merged
// delay histograms. It is safe for concurrent use, so the parallel sweep
// runner's workers can record into one shared instance.
type RunStats struct {
	mu        sync.Mutex
	runs      int
	events    uint64
	tx        int
	txKind    map[string]int
	seconds   float64
	delayHist *Hist
	ageHist   *Hist
}

// NewRunStats returns an empty accumulator.
func NewRunStats() *RunStats {
	return &RunStats{txKind: make(map[string]int)}
}

// Record folds one run's result into the accumulator.
func (s *RunStats) Record(r Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs++
	s.events += r.SimulatedEventCount
	s.seconds += r.WallClockSeconds
	for kind, n := range r.TransmissionsByKind {
		s.txKind[kind] += n
		s.tx += n
	}
	if r.DeliveryDelayHist != nil {
		if s.delayHist == nil {
			s.delayHist = NewHist(r.DeliveryDelayHist.Bounds)
		}
		s.delayHist.Merge(r.DeliveryDelayHist)
	}
	if r.RefreshAgeHist != nil {
		if s.ageHist == nil {
			s.ageHist = NewHist(r.RefreshAgeHist.Bounds)
		}
		s.ageHist.Merge(r.RefreshAgeHist)
	}
}

// Runs reports how many simulation runs were recorded.
func (s *RunStats) Runs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs
}

// Events reports the total discrete events processed across runs.
func (s *RunStats) Events() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// Transmissions reports the total transmissions of all kinds across runs.
func (s *RunStats) Transmissions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tx
}

// DeliveryDelayHist returns a copy of the merged delivery-delay histogram
// (nil when no run recorded one).
func (s *RunStats) DeliveryDelayHist() *Hist {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delayHist.Clone()
}

// RefreshAgeHist returns a copy of the merged refresh-age histogram (nil
// when no run recorded one).
func (s *RunStats) RefreshAgeHist() *Hist {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ageHist.Clone()
}

// Summary renders the block in one line given the enclosing experiment's
// elapsed wall-clock seconds (which determines cells/sec).
func (s *RunStats) Summary(wallSeconds float64) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "cells=%d", s.runs)
	if wallSeconds > 0 {
		fmt.Fprintf(&b, " (%.1f cells/s)", float64(s.runs)/wallSeconds)
	}
	fmt.Fprintf(&b, " events=%d tx=%d", s.events, s.tx)
	if len(s.txKind) > 0 {
		// Kinds in ascending order, so the footer never depends on
		// map-iteration order.
		kinds := make([]string, 0, len(s.txKind))
		for k := range s.txKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, len(kinds))
		for i, k := range kinds {
			parts[i] = fmt.Sprintf("%s %d", k, s.txKind[k])
		}
		fmt.Fprintf(&b, " [%s]", strings.Join(parts, ", "))
	}
	// The mean/min/max come from the histogram's exact Sum/Min/Max fields,
	// not bucket midpoints, so the footer matches what obsreport prints.
	if s.delayHist != nil && s.delayHist.Total > 0 {
		fmt.Fprintf(&b, " delay[mean=%.0fs min=%.0fs max=%.0fs p50=%.0fs p90=%.0fs p99=%.0fs]",
			s.delayHist.Mean(), s.delayHist.Min, s.delayHist.Max,
			s.delayHist.Quantile(0.50), s.delayHist.Quantile(0.90), s.delayHist.Quantile(0.99))
	}
	if s.ageHist != nil && s.ageHist.Total > 0 {
		fmt.Fprintf(&b, " age[mean=%.0fs min=%.0fs max=%.0fs p50=%.0fs p90=%.0fs p99=%.0fs]",
			s.ageHist.Mean(), s.ageHist.Min, s.ageHist.Max,
			s.ageHist.Quantile(0.50), s.ageHist.Quantile(0.90), s.ageHist.Quantile(0.99))
	}
	fmt.Fprintf(&b, " simWall=%.2fs", s.seconds)
	return b.String()
}
