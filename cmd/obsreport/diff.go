package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"freshcache/internal/metrics"
	"freshcache/internal/obs"
)

// diffMetric is one compared quantity: how to extract it from a scheme's
// cost summary, and which direction counts as a regression.
type diffMetric struct {
	name      string
	value     func(SchemeCost) float64
	higherBad bool // true: an increase is a regression; false: a decrease is
	guarded   func(SchemeCost) bool
}

var diffMetrics = []diffMetric{
	{name: "deliveries", value: func(s SchemeCost) float64 { return float64(s.Deliveries) }, higherBad: false},
	{name: "tx/delivery", value: func(s SchemeCost) float64 { return s.TxPerDelivery }, higherBad: true,
		guarded: func(s SchemeCost) bool { return s.Deliveries > 0 }},
	{name: "meanDelay(s)", value: func(s SchemeCost) float64 { return s.MeanDelay }, higherBad: true},
	{name: "meanAge(s)", value: func(s SchemeCost) float64 { return s.MeanAge }, higherBad: true},
}

func runDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("obsreport diff", flag.ContinueOnError)
	tol := fs.Float64("tolerance", 5.0, "allowed regression per metric, in percent relative to the baseline (0 = any worsening fails)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: obsreport diff [-tolerance pct] <baseline-dir> <candidate-dir>")
	}
	if err := checkTolerance(*tol); err != nil {
		return fmt.Errorf("diff: %w", err)
	}
	a, err := loadCosts(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadCosts(fs.Arg(1))
	if err != nil {
		return err
	}

	schemes := make([]string, 0, len(a))
	for name := range a {
		if _, ok := b[name]; ok {
			schemes = append(schemes, name)
		}
	}
	sort.Strings(schemes)
	if len(schemes) == 0 {
		return fmt.Errorf("no schemes in common between %s and %s", fs.Arg(0), fs.Arg(1))
	}

	fmt.Fprintf(out, "obsreport diff: %s -> %s (tolerance %.1f%%)\n", fs.Arg(0), fs.Arg(1), *tol)
	fmt.Fprintf(out, "  %-20s %-12s %12s %12s %9s  %s\n", "scheme", "metric", "baseline", "candidate", "delta", "verdict")
	regressions := 0
	for _, name := range schemes {
		sa, sb := a[name], b[name]
		for _, m := range diffMetrics {
			if m.guarded != nil && (!m.guarded(sa) || !m.guarded(sb)) {
				continue
			}
			va, vb := m.value(sa), m.value(sb)
			pct, verdict := judge(va, vb, m.higherBad, *tol)
			if verdict == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(out, "  %-20s %-12s %12.3f %12.3f %+8.2f%%  %s\n", name, m.name, va, vb, pct, verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%w: %d metric(s) worsened by more than %.1f%%", errRegression, regressions, *tol)
	}
	fmt.Fprintln(out, "ok: within tolerance")
	return nil
}

// checkTolerance rejects a tolerance that makes a diff pass whatever it
// compares: judge never finds |pct| above NaN or +Inf, and a
// negative percentage has no meaning.
func checkTolerance(tolPct float64) error {
	if math.IsNaN(tolPct) || math.IsInf(tolPct, 0) || tolPct < 0 {
		return fmt.Errorf("tolerance must be a finite percentage >= 0, got %g", tolPct)
	}
	return nil
}

// judge classifies a baseline→candidate change: the relative delta in
// percent and the verdict ("ok", "improved", or "REGRESSION" when the
// worse direction moved past the tolerance).
func judge(a, b float64, higherBad bool, tolPct float64) (pct float64, verdict string) {
	switch {
	case a == b:
		return 0, "ok"
	case a == 0:
		pct = math.Inf(1)
		if b < 0 {
			pct = math.Inf(-1)
		}
	default:
		pct = (b - a) / math.Abs(a) * 100
	}
	worse := pct > 0 == higherBad
	switch {
	case !worse:
		return pct, "improved"
	case math.Abs(pct) > tolPct:
		return pct, "REGRESSION"
	default:
		return pct, "ok"
	}
}

// loadCosts reads the per-scheme cost summaries from a run's manifest.
// path may be the obs directory or the manifest.json itself.
func loadCosts(path string) (map[string]SchemeCost, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, "manifest.json")
	}
	m, err := obs.ReadManifest(path)
	if err != nil {
		return nil, err
	}
	if len(m.SchemeStats) == 0 {
		return nil, fmt.Errorf("%s: manifest has no scheme roll-ups (was the run executed with -obs?)", path)
	}
	out := make(map[string]SchemeCost, len(m.SchemeStats))
	for _, ru := range m.SchemeStats {
		out[ru.Scheme] = costFromRollup(ru)
	}
	return out, nil
}

// costFromRollup reduces a manifest scheme roll-up to its cost ratios.
func costFromRollup(ru metrics.SchemeRollup) SchemeCost {
	sc := SchemeCost{
		Scheme:            ru.Scheme,
		Runs:              ru.Runs,
		Transmissions:     ru.Transmissions,
		Deliveries:        ru.Deliveries,
		VersionsGenerated: ru.VersionsGenerated,
	}
	if ru.Deliveries > 0 {
		sc.TxPerDelivery = float64(ru.Transmissions) / float64(ru.Deliveries)
	}
	if ru.VersionsGenerated > 0 {
		sc.TxPerVersion = float64(ru.Transmissions) / float64(ru.VersionsGenerated)
	}
	if ru.DeliveryDelayHist != nil {
		sc.MeanDelay = ru.DeliveryDelayHist.Mean()
	}
	if ru.RefreshAgeHist != nil {
		sc.MeanAge = ru.RefreshAgeHist.Mean()
	}
	return sc
}
