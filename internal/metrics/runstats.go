package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// RunStats is the one roll-up of a process's simulation runs ("cells"): it
// keeps one row per run under the run's label, and its readers merge the
// rows in label order. Summary renders one experiment's footer and
// SchemeRollups fills the manifest, so their float sums depend on the set
// of runs only, never on the order the parallel sweep workers recorded
// them in. It is safe for concurrent use, and Record on a nil receiver
// records nothing.
type RunStats struct {
	mu   sync.Mutex
	rows []row
}

// row is one recorded run.
type row struct {
	label string
	r     Result
}

// NewRunStats returns an empty accumulator.
func NewRunStats() *RunStats { return &RunStats{} }

// Record keeps one run's result under its label.
func (s *RunStats) Record(label string, r Result) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rows = append(s.rows, row{label: label, r: r})
}

// Events reports the total discrete events processed across runs.
func (s *RunStats) Events() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, rw := range s.rows {
		n += rw.r.SimulatedEventCount
	}
	return n
}

// sorted returns the rows whose label keep accepts, in label order. The
// sort is stable, so rows recorded under one label keep record order;
// within one invocation labels are unique.
func (s *RunStats) sorted(keep func(label string) bool) []row {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	var rows []row
	for _, rw := range s.rows {
		if keep(rw.label) {
			rows = append(rows, rw)
		}
	}
	s.mu.Unlock()
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].label < rows[j].label })
	return rows
}

// Summary renders the footer of one experiment in one line, from the rows
// labelled <experiment>/… or <experiment>-<part>/… (E11 runs two sweeps,
// E11-churn and E11-loss), given the experiment's elapsed wall-clock
// seconds (which determine cells/sec). It returns "" when no run of the
// experiment was recorded.
func (s *RunStats) Summary(experiment string, wallSeconds float64) string {
	rows := s.sorted(func(label string) bool {
		head, _, _ := strings.Cut(label, "/")
		return head == experiment || strings.HasPrefix(head, experiment+"-")
	})
	if len(rows) == 0 {
		return ""
	}
	var (
		events  uint64
		tx      int
		seconds float64
		txKind  = make(map[string]int)
		delay   = NewHist(DelayBuckets())
		age     = NewHist(DelayBuckets())
	)
	for _, rw := range rows {
		events += rw.r.SimulatedEventCount
		seconds += rw.r.WallClockSeconds
		for kind, n := range rw.r.TransmissionsByKind {
			txKind[kind] += n
			tx += n
		}
		delay.Merge(rw.r.DeliveryDelayHist)
		age.Merge(rw.r.RefreshAgeHist)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cells=%d", len(rows))
	if wallSeconds > 0 {
		fmt.Fprintf(&b, " (%.1f cells/s)", float64(len(rows))/wallSeconds)
	}
	fmt.Fprintf(&b, " events=%d tx=%d", events, tx)
	if len(txKind) > 0 {
		// Kinds in ascending order, so the footer never depends on
		// map-iteration order.
		kinds := make([]string, 0, len(txKind))
		for k := range txKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, len(kinds))
		for i, k := range kinds {
			parts[i] = fmt.Sprintf("%s %d", k, txKind[k])
		}
		fmt.Fprintf(&b, " [%s]", strings.Join(parts, ", "))
	}
	// The mean/min/max come from the histogram's exact Sum/Min/Max fields,
	// not bucket midpoints, so the footer matches what obsreport prints.
	if delay.Total > 0 {
		fmt.Fprintf(&b, " delay[mean=%.0fs min=%.0fs max=%.0fs p50=%.0fs p90=%.0fs p99=%.0fs]",
			delay.Mean(), delay.Min, delay.Max,
			delay.Quantile(0.50), delay.Quantile(0.90), delay.Quantile(0.99))
	}
	if age.Total > 0 {
		fmt.Fprintf(&b, " age[mean=%.0fs min=%.0fs max=%.0fs p50=%.0fs p90=%.0fs p99=%.0fs]",
			age.Mean(), age.Min, age.Max,
			age.Quantile(0.50), age.Quantile(0.90), age.Quantile(0.99))
	}
	fmt.Fprintf(&b, " simWall=%.2fs", seconds)
	return b.String()
}

// SchemeRollup is one scheme's roll-up in the manifest: its runs' merged
// result histograms plus the cost/benefit totals reports need
// (transmissions per delivered refresh, per generated version).
type SchemeRollup struct {
	Scheme            string `json:"scheme"`
	Runs              int    `json:"runs"`
	Transmissions     int    `json:"transmissions"`
	Deliveries        int    `json:"deliveries"`
	VersionsGenerated int    `json:"versionsGenerated"`
	DeliveryDelayHist *Hist  `json:"deliveryDelayHist,omitempty"`
	RefreshAgeHist    *Hist  `json:"refreshAgeHist,omitempty"`
}

// SchemeRollups merges every row into its scheme's roll-up, rows in label
// order, and returns the roll-ups in ascending scheme order.
func (s *RunStats) SchemeRollups() []SchemeRollup {
	rows := s.sorted(func(string) bool { return true })
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].r.Scheme < rows[j].r.Scheme })
	var out []SchemeRollup
	for _, rw := range rows {
		if len(out) == 0 || out[len(out)-1].Scheme != rw.r.Scheme {
			out = append(out, SchemeRollup{Scheme: rw.r.Scheme,
				DeliveryDelayHist: NewHist(DelayBuckets()), RefreshAgeHist: NewHist(DelayBuckets())})
		}
		ru := &out[len(out)-1]
		ru.Runs++
		ru.Transmissions += rw.r.Transmissions
		ru.Deliveries += rw.r.Deliveries
		ru.VersionsGenerated += rw.r.VersionsGenerated
		ru.DeliveryDelayHist.Merge(rw.r.DeliveryDelayHist)
		ru.RefreshAgeHist.Merge(rw.r.RefreshAgeHist)
	}
	return out
}
