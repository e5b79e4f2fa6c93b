package core

import (
	"reflect"
	"testing"

	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
)

// runOnDrift runs the hierarchical scheme on a drifting-community trace
// (structure reshuffles at the midpoint) with the given rebuild interval.
func runOnDrift(t *testing.T, seed int64, rebuild float64) metrics.Result {
	t.Helper()
	tr, err := mobility.DriftingCommunity(40, 8*mobility.Day).Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{
		Trace:           tr,
		Catalog:         testScenarioCatalog(t, 4*mobility.Hour),
		Scheme:          NewHierarchical(),
		NumCachingNodes: 6,
		WarmupFraction:  0.25, // warmup ends well inside the first regime
		RebuildInterval: rebuild,
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRebuildAdaptsToDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	var staticSum, adaptiveSum float64
	const seeds = 3
	for seed := int64(50); seed < 50+seeds; seed++ {
		static := runOnDrift(t, seed, 0)
		adaptive := runOnDrift(t, seed, 2*mobility.Day)
		t.Logf("seed %d: static=%.3f adaptive=%.3f", seed, static.FreshnessRatio, adaptive.FreshnessRatio)
		staticSum += static.FreshnessRatio
		adaptiveSum += adaptive.FreshnessRatio
	}
	if adaptiveSum <= staticSum {
		t.Fatalf("rebuilding did not help under drift: adaptive %.4f vs static %.4f (sums over %d seeds)",
			adaptiveSum, staticSum, seeds)
	}
}

func TestRebuildHarmlessWithoutDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	static := runWith(t, NewHierarchical(), 61, nil)
	adaptive := runWith(t, NewHierarchical(), 61, func(c *Config) { c.RebuildInterval = 2 * mobility.Day })
	t.Logf("static=%.3f adaptive=%.3f", static.FreshnessRatio, adaptive.FreshnessRatio)
	// On a stationary trace, rebuilding from recent windows must not
	// collapse performance (small noise either way is fine).
	if adaptive.FreshnessRatio < 0.7*static.FreshnessRatio {
		t.Fatalf("rebuilding hurt a stationary run: %v vs %v", adaptive.FreshnessRatio, static.FreshnessRatio)
	}
}

func TestRebuildIntervalValidation(t *testing.T) {
	cfg := Config{
		Trace:           testScenarioTrace(t, 1),
		Catalog:         testScenarioCatalog(t, mobility.Hour),
		Scheme:          NewHierarchical(),
		NumCachingNodes: 4,
		RebuildInterval: -1,
	}
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("negative rebuild interval accepted")
	}
}

func TestRebuildIgnoredForNonRebuilder(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	// Epidemic does not implement Rebuilder; configuring an interval must
	// change nothing.
	want := runWith(t, NewEpidemic(), 63, nil)
	got := runWith(t, NewEpidemic(), 63, func(c *Config) { c.RebuildInterval = mobility.Day })
	want.WallClockSeconds, got.WallClockSeconds = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuild interval moved a non-rebuilder's result:\n%+v\n%+v", got, want)
	}
}

func TestRebuildDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	a := runOnDrift(t, 7, 2*mobility.Day)
	b := runOnDrift(t, 7, 2*mobility.Day)
	if a.FreshnessRatio != b.FreshnessRatio || a.Transmissions != b.Transmissions {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestRebuildKeepsWorkingScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	res := runOnDrift(t, 9, mobility.Day)
	if res.Deliveries == 0 {
		t.Fatal("no deliveries with daily rebuilds")
	}
	if res.VersionsGenerated == 0 {
		t.Fatal("no versions generated")
	}
}
