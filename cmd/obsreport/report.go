package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"freshcache/internal/obs"
	"freshcache/internal/stats"
)

// Dist summarizes one empirical distribution. Its percentiles interpolate
// linearly between order statistics (stats.Summarize).
type Dist struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func newDist(vals []float64) *Dist {
	if len(vals) == 0 {
		return nil
	}
	s := stats.Summarize(vals)
	return &Dist{Count: s.Count, Mean: s.Mean, Min: s.Min, Max: s.Max,
		P50: s.Median, P90: s.P90, P99: s.P99}
}

// CurvePoint is one tick of the age-over-time curve.
type CurvePoint struct {
	T       float64 `json:"t"`
	MeanAge float64 `json:"meanAge"`
}

// TimelineSummary condenses one run's telemetry timeline.
type TimelineSummary struct {
	Points         int          `json:"points"`
	Ticks          int          `json:"ticks"`
	FinalFreshness float64      `json:"finalFreshness"`
	CopyAge        *Dist        `json:"copyAge,omitempty"`
	AgeCurve       []CurvePoint `json:"ageCurve,omitempty"`
}

// RunReport is the per-run section of a report: span-tree statistics from
// the lineage plus the timeline condensate.
type RunReport struct {
	Run         string           `json:"run"`
	Scheme      string           `json:"scheme,omitempty"`
	Spans       int              `json:"spans"`
	SpanKinds   map[string]int   `json:"spanKinds,omitempty"`
	HopCount    *Dist            `json:"hopCount,omitempty"`    // tree edges from generation to delivery
	StallTime   *Dist            `json:"stallTime,omitempty"`   // delivery.t − parent span's t
	DeliveryAge *Dist            `json:"deliveryAge,omitempty"` // copy age at delivery (s)
	Timeline    *TimelineSummary `json:"timeline,omitempty"`
}

// SchemeCost is the manifest roll-up reduced to cost-per-benefit ratios:
// what one delivered refresh (and one generated version) cost in
// transmissions, and how fresh the deliveries were.
type SchemeCost struct {
	Scheme            string  `json:"scheme"`
	Runs              int     `json:"runs"`
	Transmissions     int     `json:"transmissions"`
	Deliveries        int     `json:"deliveries"`
	VersionsGenerated int     `json:"versionsGenerated"`
	TxPerDelivery     float64 `json:"txPerDelivery"`
	TxPerVersion      float64 `json:"txPerVersion"`
	MeanDelay         float64 `json:"meanDelaySeconds"`
	MeanAge           float64 `json:"meanAgeSeconds"`
}

// Report is the full joined view of one run directory.
type Report struct {
	Dir     string       `json:"dir"`
	Tool    string       `json:"tool,omitempty"`
	Seed    int64        `json:"seed,omitempty"`
	Runs    []RunReport  `json:"runs,omitempty"`
	Schemes []SchemeCost `json:"schemes,omitempty"`
}

func runReport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("obsreport report", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	curve := fs.Int("curve", 60, "age-over-time sparkline width in columns (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: obsreport report [-json] <obs-dir>")
	}
	rep, err := buildReport(fs.Arg(0))
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	renderReport(out, rep, *curve)
	return nil
}

// buildReport joins whichever artifacts the directory holds: lineage.jsonl
// and timeline.csv feed the per-run sections, manifest.json the per-scheme
// cost table. At least one of the three must exist.
func buildReport(dir string) (*Report, error) {
	rep := &Report{Dir: dir}
	found := 0

	if m, err := obs.ReadManifest(filepath.Join(dir, "manifest.json")); err == nil {
		found++
		rep.Tool = m.Tool
		rep.Seed = m.Seed
		for _, ru := range m.SchemeStats {
			rep.Schemes = append(rep.Schemes, costFromRollup(ru))
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	byRun := map[string]*RunReport{}
	var order []string
	runFor := func(name string) *RunReport {
		if r := byRun[name]; r != nil {
			return r
		}
		r := &RunReport{Run: name}
		byRun[name] = r
		order = append(order, name)
		return r
	}

	if f, err := os.Open(filepath.Join(dir, "lineage.jsonl")); err == nil {
		found++
		records, rerr := obs.ReadSpansJSONL(f)
		f.Close()
		if rerr != nil {
			return nil, rerr
		}
		perRun := map[string][]obs.SpanRecord{}
		for _, rec := range records {
			perRun[rec.Run] = append(perRun[rec.Run], rec)
		}
		names := make([]string, 0, len(perRun))
		for name := range perRun {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			summarizeLineage(runFor(name), perRun[name])
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	if f, err := os.Open(filepath.Join(dir, "timeline.csv")); err == nil {
		found++
		records, rerr := obs.ReadTimelineCSV(f)
		f.Close()
		if rerr != nil {
			return nil, rerr
		}
		perRun := map[string][]obs.TimelineRecord{}
		for _, rec := range records {
			perRun[rec.Run] = append(perRun[rec.Run], rec)
		}
		names := make([]string, 0, len(perRun))
		for name := range perRun {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			runFor(name).Timeline = summarizeTimeline(perRun[name])
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	if found == 0 {
		return nil, fmt.Errorf("%s: no observability artifacts (want manifest.json, lineage.jsonl or timeline.csv)", dir)
	}
	sort.Strings(order)
	for _, name := range order {
		rep.Runs = append(rep.Runs, *byRun[name])
	}
	return rep, nil
}

// summarizeLineage fills the span-tree statistics of one run: span counts
// by kind, and the hop-count / stall-time / age-at-delivery distributions
// over its delivery spans.
func summarizeLineage(r *RunReport, records []obs.SpanRecord) {
	tree := obs.BuildSpanTree(records)
	r.Spans = len(records)
	r.SpanKinds = map[string]int{}
	var hops, stalls, ages []float64
	for _, rec := range records {
		if r.Scheme == "" {
			r.Scheme = rec.Scheme
		}
		r.SpanKinds[rec.Kind.String()]++
		if rec.Kind != obs.SpanDelivery {
			continue
		}
		hops = append(hops, float64(tree.Depth(rec.ID)))
		ages = append(ages, rec.Age)
		if parent, ok := tree.ByID[rec.Parent]; ok {
			stalls = append(stalls, rec.T-parent.T)
		}
	}
	r.HopCount = newDist(hops)
	r.StallTime = newDist(stalls)
	r.DeliveryAge = newDist(ages)
}

// summarizeTimeline condenses one run's samples: the last freshness-ratio
// sample, the copy-age distribution, and the mean copy age per tick (the
// age-over-time curve).
func summarizeTimeline(records []obs.TimelineRecord) *TimelineSummary {
	ts := &TimelineSummary{Points: len(records)}
	ticks := map[float64]bool{}
	var ageSum, ageN = map[float64]float64{}, map[float64]int{}
	var ages []float64
	for _, rec := range records {
		ticks[rec.T] = true
		switch rec.Series {
		case "freshness_ratio":
			ts.FinalFreshness = rec.Val // records are time-ordered per run
		case "copy_age":
			ages = append(ages, rec.Val)
			ageSum[rec.T] += rec.Val
			ageN[rec.T]++
		}
	}
	ts.Ticks = len(ticks)
	ts.CopyAge = newDist(ages)
	ticksSorted := make([]float64, 0, len(ageSum))
	for t := range ageSum {
		ticksSorted = append(ticksSorted, t)
	}
	sort.Float64s(ticksSorted)
	for _, t := range ticksSorted {
		ts.AgeCurve = append(ts.AgeCurve, CurvePoint{T: t, MeanAge: ageSum[t] / float64(ageN[t])})
	}
	return ts
}

// sparkline renders vals as a fixed-width bar strip, bucketing when there
// are more values than columns.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 || width <= 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	if len(vals) > width {
		bucketed := make([]float64, width)
		for i := range bucketed {
			lo, hi := i*len(vals)/width, (i+1)*len(vals)/width
			if hi == lo {
				hi = lo + 1
			}
			sum := 0.0
			for _, v := range vals[lo:hi] {
				sum += v
			}
			bucketed[i] = sum / float64(hi-lo)
		}
		vals = bucketed
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(levels)-1))
		}
		b.WriteRune(levels[i])
	}
	return b.String()
}

func renderDist(w io.Writer, label, unit string, d *Dist) {
	if d == nil {
		return
	}
	fmt.Fprintf(w, "  %-18s mean %.1f%s  min %.0f%s  max %.0f%s  p50 %.0f%s  p90 %.0f%s  p99 %.0f%s  (n=%d)\n",
		label, d.Mean, unit, d.Min, unit, d.Max, unit, d.P50, unit, d.P90, unit, d.P99, unit, d.Count)
}

func renderReport(w io.Writer, rep *Report, curveWidth int) {
	fmt.Fprintf(w, "obsreport: %s", rep.Dir)
	if rep.Tool != "" {
		fmt.Fprintf(w, " (tool %s, seed %d)", rep.Tool, rep.Seed)
	}
	fmt.Fprintln(w)
	for i := range rep.Runs {
		r := &rep.Runs[i]
		fmt.Fprintf(w, "\nrun %s", r.Run)
		if r.Scheme != "" {
			fmt.Fprintf(w, " (scheme %s)", r.Scheme)
		}
		fmt.Fprintln(w)
		if r.Spans > 0 {
			kinds := make([]string, 0, len(r.SpanKinds))
			for k := range r.SpanKinds {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			parts := make([]string, 0, len(kinds))
			for _, k := range kinds {
				parts = append(parts, fmt.Sprintf("%s %d", k, r.SpanKinds[k]))
			}
			fmt.Fprintf(w, "  spans: %d (%s)\n", r.Spans, strings.Join(parts, ", "))
			renderDist(w, "hops to delivery:", "", r.HopCount)
			renderDist(w, "stall before hop:", "s", r.StallTime)
			renderDist(w, "age at delivery:", "s", r.DeliveryAge)
		}
		if ts := r.Timeline; ts != nil {
			fmt.Fprintf(w, "  timeline: %d points over %d ticks, final freshness %.4f\n",
				ts.Points, ts.Ticks, ts.FinalFreshness)
			renderDist(w, "copy age:", "s", ts.CopyAge)
			if curveWidth > 0 && len(ts.AgeCurve) > 1 {
				curve := make([]float64, len(ts.AgeCurve))
				for i, p := range ts.AgeCurve {
					curve[i] = p.MeanAge
				}
				fmt.Fprintf(w, "  mean copy age over time: %s\n", sparkline(curve, curveWidth))
			}
		}
	}
	if len(rep.Schemes) > 0 {
		fmt.Fprintf(w, "\nscheme cost (manifest roll-up)\n")
		fmt.Fprintf(w, "  %-20s %5s %10s %10s %9s %12s %11s %10s %9s\n",
			"scheme", "runs", "tx", "delivered", "versions", "tx/delivery", "tx/version", "meanDelay", "meanAge")
		for _, sc := range rep.Schemes {
			fmt.Fprintf(w, "  %-20s %5d %10d %10d %9d %12.2f %11.2f %9.0fs %8.0fs\n",
				sc.Scheme, sc.Runs, sc.Transmissions, sc.Deliveries, sc.VersionsGenerated,
				sc.TxPerDelivery, sc.TxPerVersion, sc.MeanDelay, sc.MeanAge)
		}
	}
}
