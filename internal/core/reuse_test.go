//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"weak"

	"freshcache/internal/cache"
	"freshcache/internal/mobility"
)

// TestReuseDropsQuerySlab: a recycled Reuse must not keep the previous
// run's query log alive. The bundle keeps the previous plan's buffer, so
// a plan entry that pointed at its query would pin the whole log for as
// long as the worker lives; a query entry carries its requester and item
// instead. The second run plans no queries, so its shorter plan leaves
// the first run's query entries in the recycled buffer past its end.
func TestReuseDropsQuerySlab(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	reuse := NewReuse()
	tr := testScenarioTrace(t, 1)
	cat := testScenarioCatalog(t, 4*mobility.Hour)
	run := func(queryRate float64) *Engine {
		t.Helper()
		eng, err := NewEngine(Config{
			Trace:           tr,
			Catalog:         cat,
			Scheme:          NewHierarchical(),
			NumCachingNodes: 6,
			Workload:        cache.WorkloadConfig{QueryRate: queryRate, ZipfExponent: 1},
			Seed:            1,
			Reuse:           reuse,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	slab := func() weak.Pointer[cache.Query] {
		eng := run(1.0 / mobility.Hour)
		if len(eng.queries) == 0 {
			t.Fatal("the first run issued no queries")
		}
		return weak.Make(&eng.queries[0])
	}()
	next := run(0)
	runtime.GC()
	if slab.Value() != nil {
		t.Fatal("the recycled Reuse keeps the previous run's query slab alive")
	}
	runtime.KeepAlive(next)
}
