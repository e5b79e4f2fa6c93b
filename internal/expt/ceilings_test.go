package expt

import (
	"runtime"
	"testing"

	"freshcache/internal/core"
	"freshcache/internal/mobility"
	"freshcache/internal/trace"
)

// Margins over the baselines in TestAllocationCeilings. A single
// run's allocation count is fixed for a toolchain, so the per-contact
// rows get 2%. The quick E2 sweep goes through the sweep pool, whose
// count moves by a few dozen allocations from run to run, and gets 5%.
// Bytes follow slice growth and get 10%.
const (
	perContactAllocMargin = 0.02
	e2AllocMargin         = 0.05
	bytesMargin           = 0.10
)

// TestAllocationCeilings bounds the heap cost of small versions of the
// runs the repository benchmark (bench/) times, so an allocation
// regression fails the ordinary test suite instead of waiting for a
// paired benchmark run.
// Each row runs once untimed to warm the trace cache and pools, then
// once measured, with observability off at seed 42. Timing is not
// checked here: wall time is the benchmark's job.
//
// The baselines were measured on the child of commit fdab2ec, the change
// that stores queries by value and merges the measurement plan's runs,
// on a 2-vCPU Xeon VM with go1.24.0, the toolchain CI pins. Each ceiling
// is the baseline times (1 + margin). A ceiling changes only with a
// CHANGES.md line that names the row, the old and new value, and why.
func TestAllocationCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	const seed = 42
	gen, err := mobility.Preset("reality-like")
	if err != nil {
		t.Fatal(err)
	}
	reality, err := gen.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	largeN, err := largeNTrace(largeNQuickNodes, seed)
	if err != nil {
		t.Fatal(err)
	}
	// runPerContact runs one scheme over a trace and returns the contacts
	// the network dispatched, the unit the per-contact rows divide by.
	runPerContact := func(sc Scenario, mk func() core.Scheme, tr *trace.Trace) func() (int, error) {
		return func() (int, error) {
			_, eng, err := sc.RunOnTrace(mk(), tr)
			if err != nil {
				return 0, err
			}
			return eng.ContactsDispatched(), nil
		}
	}
	e21 := defaultScenario("reality-like", seed)
	e21.NumCachingNodes = 64
	e21.RefreshInterval = 12 * mobility.Hour

	rows := []struct {
		name, unit  string
		run         func() (units int, err error)
		allocs      float64 // baseline heap allocations per unit
		bytes       float64 // baseline heap bytes per unit
		allocMargin float64
	}{
		{
			name: "reality-hier", unit: "contact",
			run:    runPerContact(defaultScenario("reality-like", seed), core.NewHierarchical, reality),
			allocs: 0.00725, bytes: 70.36, allocMargin: perContactAllocMargin,
		},
		{
			name: "reality-direct", unit: "contact",
			run:    runPerContact(defaultScenario("reality-like", seed), core.NewDirect, reality),
			allocs: 0.00286, bytes: 41.10, allocMargin: perContactAllocMargin,
		},
		{
			name: "quick-e2", unit: "op",
			run: func() (int, error) {
				e2, err := ByID("E2")
				if err != nil {
					return 0, err
				}
				_, err = e2.Run(Options{Seed: seed, Quick: true, Parallel: 1})
				return 1, err
			},
			allocs: 3424, bytes: 5.278e6, allocMargin: e2AllocMargin,
		},
		{
			name: "quick-e21", unit: "contact",
			run:    runPerContact(e21, core.NewHierarchical, largeN),
			allocs: 0.00499, bytes: 40.50, allocMargin: perContactAllocMargin,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if _, err := row.run(); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			units, err := row.run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if units == 0 {
				t.Fatal("run measured no units")
			}
			allocs := float64(after.Mallocs-before.Mallocs) / float64(units)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(units)
			t.Logf("%d %s(s): %.5f allocs/%s, %.2f bytes/%s (%s)",
				units, row.unit, allocs, row.unit, bytes, row.unit, runtime.Version())
			if ceiling := row.allocs * (1 + row.allocMargin); allocs > ceiling {
				t.Errorf("%.5f allocs/%s, ceiling %.5f (baseline %.5f +%g%%) under %s",
					allocs, row.unit, ceiling, row.allocs, row.allocMargin*100, runtime.Version())
			}
			if ceiling := row.bytes * (1 + bytesMargin); bytes > ceiling {
				t.Errorf("%.2f bytes/%s, ceiling %.2f (baseline %.2f +%g%%) under %s",
					bytes, row.unit, ceiling, row.bytes, bytesMargin*100, runtime.Version())
			}
		})
	}
}
