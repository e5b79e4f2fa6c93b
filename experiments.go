package freshcache

import (
	"freshcache/internal/expt"
)

// ExperimentTable is one rendered experiment output: a data series (first
// column is the x-axis) or a results table, with plain-text and CSV
// renderers.
type ExperimentTable = expt.Table

// ExperimentInfo describes one experiment of the reproduction suite.
type ExperimentInfo struct {
	ID            string
	Title         string
	PaperAnalogue string
}

// Experiments lists the reproduction suite (E1…E10, see DESIGN.md).
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range expt.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title, PaperAnalogue: e.PaperAnalogue})
	}
	return out
}

// ExperimentOptions controls one experiment run: seed, quick trimming, the
// sweep-cell worker bound, replicates per cell, and an optional RunStats
// that keeps one row per simulation run (footers, per-scheme roll-ups).
type ExperimentOptions = expt.Options

// RunExperiment regenerates one experiment's tables. quick trims sweeps to
// a couple of points for smoke runs; the full sweep reproduces the
// evaluation.
func RunExperiment(id string, seed int64, quick bool) ([]*ExperimentTable, error) {
	return RunExperimentOpts(id, ExperimentOptions{Seed: seed, Quick: quick})
}

// RunExperimentOpts is RunExperiment with full control over execution
// options (parallel workers, replicates, run statistics).
func RunExperimentOpts(id string, opts ExperimentOptions) ([]*ExperimentTable, error) {
	e, err := expt.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(opts)
}
