package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"

	"freshcache/internal/obs"
)

// This file is the cross-run side of obsreport: trend and query read the
// results store instead of a single run's obs directory, so history can
// be plotted without re-running anything. Each record in the store is the
// manifest of one `experiments -store` or `freshsim -store` run, on one
// JSON line.

// readStore reads the store at path, keeping the records the named tool
// appended ("" keeps them all).
func readStore(path, tool string) ([]obs.Manifest, error) {
	ms, err := obs.ReadStore(path)
	if err != nil || tool == "" {
		return ms, err
	}
	var out []obs.Manifest
	for _, m := range ms {
		if m.Tool == tool {
			out = append(out, m)
		}
	}
	return out, nil
}

// flatten names a manifest's metrics the way trend and query address
// them: registry counters under their registry names, and per-scheme
// roll-up figures under "scheme/<name>/...".
func flatten(m obs.Manifest) map[string]float64 {
	out := make(map[string]float64)
	if m.Metrics != nil {
		for k, v := range m.Metrics.Counters {
			out[k] = float64(v)
		}
	}
	for _, r := range m.SchemeStats {
		c, p := costFromRollup(r), "scheme/"+r.Scheme+"/"
		out[p+"transmissions"] = float64(c.Transmissions)
		out[p+"deliveries"] = float64(c.Deliveries)
		out[p+"versions_generated"] = float64(c.VersionsGenerated)
		if c.Deliveries > 0 {
			out[p+"tx_per_delivery"] = c.TxPerDelivery
		}
		if r.DeliveryDelayHist != nil {
			out[p+"mean_delay_s"] = c.MeanDelay
		}
		if r.RefreshAgeHist != nil {
			out[p+"mean_age_s"] = c.MeanAge
		}
	}
	return out
}

// point is one run's value of a metric.
type point struct {
	Index       int // record index in the (tool-filtered) store
	CreatedAt   string
	Tool        string
	GitRevision string
	Value       float64
}

// series extracts one metric's trajectory: one point per record that
// carries the metric, in append order.
func series(ms []obs.Manifest, metric string) []point {
	var out []point
	for i, m := range ms {
		if v, ok := flatten(m)[metric]; ok {
			out = append(out, point{Index: i, CreatedAt: m.CreatedAt, Tool: m.Tool,
				GitRevision: m.GitRevision, Value: v})
		}
	}
	return out
}

// metricNames returns the sorted union of metric names across the records.
func metricNames(ms []obs.Manifest) []string {
	seen := make(map[string]bool)
	for _, m := range ms {
		for name := range flatten(m) {
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

// runTrend plots one stored metric's trajectory across the store.
func runTrend(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("obsreport trend", flag.ContinueOnError)
	metric := fs.String("metric", "", "metric name to plot (see `obsreport query -metrics`)")
	tool := fs.String("tool", "", "restrict to records appended by this tool (e.g. experiments, freshsim)")
	last := fs.Int("last", 0, "plot only the most recent N points (0 = all)")
	asJSON := fs.Bool("json", false, "emit the series as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: obsreport trend -metric <name> [-tool t] [-last N] <store.jsonl>")
	}
	if *metric == "" {
		return fmt.Errorf("trend: -metric is required")
	}
	ms, err := readStore(fs.Arg(0), *tool)
	if err != nil {
		return err
	}
	pts := series(ms, *metric)
	if len(pts) == 0 {
		return fmt.Errorf("trend: no stored record carries metric %q (try `obsreport query -metrics %s`)",
			*metric, fs.Arg(0))
	}
	if *last > 0 && len(pts) > *last {
		pts = pts[len(pts)-*last:]
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(pts)
	}

	fmt.Fprintf(out, "# trend %s (%d point(s))\n", *metric, len(pts))
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.Value
	}
	fmt.Fprintf(out, "  %s\n", sparkline(vals, 64))
	fmt.Fprintf(out, "  %-5s %-20s %-18s %-10s %14s\n", "idx", "createdAt", "tool", "revision", "value")
	for _, p := range pts {
		fmt.Fprintf(out, "  %-5d %-20s %-18s %-10s %14s\n",
			p.Index, p.CreatedAt, p.Tool, shortRev(p.GitRevision), formatValue(p.Value))
	}
	first, lastV := pts[0].Value, pts[len(pts)-1].Value
	if first != 0 {
		fmt.Fprintf(out, "  net change: %+.2f%% (%s -> %s)\n",
			(lastV-first)/absf(first)*100, formatValue(first), formatValue(lastV))
	}
	return nil
}

// runQuery lists the store's records, or the union of metric names.
func runQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("obsreport query", flag.ContinueOnError)
	tool := fs.String("tool", "", "restrict to records appended by this tool")
	names := fs.Bool("metrics", false, "list the union of stored metric names instead of the records")
	asJSON := fs.Bool("json", false, "emit the records as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: obsreport query [-tool t] [-metrics] <store.jsonl>")
	}
	ms, err := readStore(fs.Arg(0), *tool)
	if err != nil {
		return err
	}
	if *names {
		for _, n := range metricNames(ms) {
			fmt.Fprintln(out, n)
		}
		return nil
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(ms)
	}
	fmt.Fprintf(out, "# store %s (%d record(s))\n", fs.Arg(0), len(ms))
	fmt.Fprintf(out, "  %-5s %-20s %-18s %-10s %-8s %-18s %8s %8s %7s\n",
		"idx", "createdAt", "tool", "revision", "seed", "configDigest", "metrics", "cells", "wall")
	for i, m := range ms {
		fmt.Fprintf(out, "  %-5d %-20s %-18s %-10s %-8d %-18s %8d %8d %6.1fs\n",
			i, m.CreatedAt, m.Tool, shortRev(m.GitRevision), m.Seed, m.ConfigDigest,
			len(flatten(m)), len(m.Cells), m.WallClockSeconds)
	}
	return nil
}

// formatValue renders a stored metric value compactly: integers plainly,
// fractions with enough precision to compare.
func formatValue(v float64) string {
	if v == float64(int64(v)) && absf(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// shortRev abbreviates a VCS revision for table display.
func shortRev(rev string) string {
	if len(rev) > 10 {
		return rev[:10]
	}
	if rev == "" {
		return "-"
	}
	return rev
}
