package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"freshcache/internal/obs/store"
)

// This file is the cross-run side of obsreport: trend/query/gate read the
// persistent results store (freshcache-store/1 JSONL appended by
// `experiments -store` / `freshsim -store`) instead of a single run's obs
// directory, so history can be plotted and gated without re-running
// anything.

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
	recs, err := store.Read(fs.Arg(0))
	if err != nil {
		return err
	}
	pts := store.Series(store.Filter(recs, *tool), *metric)
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
	recs, err := store.Read(fs.Arg(0))
	if err != nil {
		return err
	}
	recs = store.Filter(recs, *tool)
	if *names {
		for _, n := range store.MetricNames(recs) {
			fmt.Fprintln(out, n)
		}
		return nil
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(recs)
	}
	fmt.Fprintf(out, "# store %s (%d record(s))\n", fs.Arg(0), len(recs))
	fmt.Fprintf(out, "  %-5s %-20s %-18s %-10s %-8s %-18s %8s %8s %7s\n",
		"idx", "createdAt", "tool", "revision", "seed", "configDigest", "metrics", "cells", "wall")
	for i, r := range recs {
		fmt.Fprintf(out, "  %-5d %-20s %-18s %-10s %-8d %-18s %8d %8d %6.1fs\n",
			i, r.CreatedAt, r.Tool, shortRev(r.GitRevision), r.Seed, r.ConfigDigest,
			len(r.Metrics), len(r.Cells), r.WallClockSeconds)
	}
	return nil
}

// gateSpec is one gated metric: its name and the tolerance (percent) its
// worse direction may move before the gate fails.
type gateSpec struct {
	metric string
	tolPct float64
}

// parseGateSpecs parses a comma-separated "-metric" value where each item
// is "name" (uses the shared default tolerance) or "name:tolPct".
func parseGateSpecs(s string, defTol float64) ([]gateSpec, error) {
	if err := checkTolerance(defTol); err != nil {
		return nil, fmt.Errorf("gate: -tolerance: %w", err)
	}
	var specs []gateSpec
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		spec := gateSpec{metric: item, tolPct: defTol}
		if i := strings.LastIndexByte(item, ':'); i >= 0 {
			tol, err := strconv.ParseFloat(item[i+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("gate: bad tolerance in %q: %w", item, err)
			}
			if err := checkTolerance(tol); err != nil {
				return nil, fmt.Errorf("gate: %q: %w", item, err)
			}
			spec.metric, spec.tolPct = item[:i], tol
		}
		if spec.metric == "" {
			return nil, fmt.Errorf("gate: empty metric name in %q", s)
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("gate: -metric is required (comma-separated, optional per-metric :tolerance)")
	}
	return specs, nil
}

// runGate compares the newest stored record's metrics against a baseline
// drawn from history and fails (exit 2, like diff) when any gated metric
// worsened past its tolerance. Any stored metric can be gated; CI's
// obs-store job gates engine/contacts and
// scheme/hierarchical/tx_per_delivery.
func runGate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("obsreport gate", flag.ContinueOnError)
	metric := fs.String("metric", "", "comma-separated metrics to gate; each item is name or name:tolerancePct")
	tool := fs.String("tool", "", "restrict to records appended by this tool")
	baseline := fs.String("baseline", "prev", "baseline to compare the newest record against: prev (previous record), best (best historical value), median (historical median)")
	tol := fs.Float64("tolerance", 5, "default allowed worsening in percent")
	lowerBad := fs.Bool("lower-bad", false, "a lower value is worse (throughput-style metrics; default: higher is worse, cost-style)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: obsreport gate -metric <name[:tol],...> [-baseline prev|best|median] [-tolerance pct] [-lower-bad] <store.jsonl>")
	}
	specs, err := parseGateSpecs(*metric, *tol)
	if err != nil {
		return err
	}
	recs, err := store.Read(fs.Arg(0))
	if err != nil {
		return err
	}
	recs = store.Filter(recs, *tool)
	if len(recs) < 2 {
		return fmt.Errorf("gate: need at least 2 stored records to compare (have %d)", len(recs))
	}
	newest, history := recs[len(recs)-1], recs[:len(recs)-1]
	higherBad := !*lowerBad

	fmt.Fprintf(out, "# gate: newest record (idx %d, %s) vs %s of %d record(s)\n",
		len(recs)-1, newest.CreatedAt, *baseline, len(history))
	fmt.Fprintf(out, "  %-28s %14s %14s %9s %8s  %s\n", "metric", "baseline", "newest", "delta", "tol", "verdict")
	regressions := 0
	for _, spec := range specs {
		nv, ok := newest.Metrics[spec.metric]
		if !ok {
			return fmt.Errorf("gate: newest record has no metric %q", spec.metric)
		}
		base, _, err := baselineValue(history, spec.metric, *baseline, higherBad)
		if err != nil {
			return err
		}
		pct, verdict := judge(base, nv, higherBad, spec.tolPct)
		if verdict == "REGRESSION" {
			regressions++
		}
		fmt.Fprintf(out, "  %-28s %14s %14s %+8.2f%% %7.1f%%  %s\n",
			spec.metric, formatValue(base), formatValue(nv), pct, spec.tolPct, verdict)
	}
	if regressions > 0 {
		return fmt.Errorf("%w: %d metric(s) worsened past tolerance vs %s baseline",
			errRegression, regressions, *baseline)
	}
	fmt.Fprintln(out, "ok: within tolerance")
	return nil
}

// baselineValue draws the comparison value for one metric from the
// historical records (everything except the newest), under the chosen
// baseline policy. Returns the value and how many historical records
// carried the metric.
func baselineValue(history []store.Record, metric, policy string, higherBad bool) (float64, int, error) {
	vals := make([]float64, 0, len(history))
	for _, r := range history {
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, 0, fmt.Errorf("gate: no historical record carries metric %q", metric)
	}
	switch policy {
	case "prev":
		return vals[len(vals)-1], len(vals), nil
	case "best":
		best := vals[0]
		for _, v := range vals[1:] {
			if (higherBad && v < best) || (!higherBad && v > best) {
				best = v
			}
		}
		return best, len(vals), nil
	case "median":
		s := append([]float64(nil), vals...)
		sort.Float64s(s)
		mid := len(s) / 2
		if len(s)%2 == 0 {
			return (s[mid-1] + s[mid]) / 2, len(vals), nil
		}
		return s[mid], len(vals), nil
	default:
		return 0, 0, fmt.Errorf("gate: unknown baseline %q (want prev, best or median)", policy)
	}
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
