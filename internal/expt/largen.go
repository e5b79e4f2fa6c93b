package expt

import (
	"freshcache/internal/core"
	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
)

// largeNNodes is the full-size node count of E21; quick mode trims it so
// the smoke suite stays fast while still exercising mobility's sparse
// pair sampling (both sizes are above its 1024-node threshold).
const (
	largeNNodes      = 10000
	largeNQuickNodes = 2000
)

// runE21 pushes a large-N community trace through the full refresh/query
// pipeline — sparse rate estimation, NCL selection, hierarchy building,
// probabilistic replication and the query workload — end to end. It is
// the scale smoke test: at 10,000 nodes it only completes if no n²
// structure is allocated anywhere on the path.
func runE21(opts Options) ([]*Table, error) {
	n := largeNNodes
	if opts.Quick {
		n = largeNQuickNodes
	}
	g := mobility.LargeCommunity(n)
	res, err := opts.sweep("E21", []string{g.Name()}, 1, []string{"hierarchical"}).Run(func(c Cell) ([]float64, error) {
		sc := defaultScenario(c.Preset, c.Seed)
		sc.NumCachingNodes = 64
		// Inter-community rates bound the refresh delay (p50 around 5 h
		// on this trace), so the default 4 h freshness window is
		// infeasible at this scale; a 12 h cycle is the realistic
		// operating point.
		sc.RefreshInterval = 12 * mobility.Hour
		return runCell(opts, c, generated(g), sc, nil, func(r metrics.Result, eng *core.Engine) ([]float64, error) {
			return []float64{float64(eng.ContactsDispatched()), float64(r.SimulatedEventCount),
				r.WallClockSeconds, r.FreshnessRatio, r.ValidAnswers, r.TxPerVersion}, nil
		})
	})
	if err != nil {
		return nil, err
	}
	header := []string{"nodes", "communities", "contacts", "events", "freshness", "validAnswers", "tx/version"}
	if opts.Timings {
		header = []string{"nodes", "communities", "contacts", "events", "wallClock(s)", "freshness", "validAnswers", "tx/version"}
	}
	t := &Table{
		ID: "E21", Title: "Large-N community trace through the full pipeline (hierarchical scheme)",
		Header: header,
	}
	row := []any{n, g.Communities, countValue(res, 0, 0, 0, 0), countValue(res, 0, 0, 0, 1)}
	if opts.Timings {
		row = append(row, res.Value(0, 0, 0, 2))
	}
	row = append(row, res.Value(0, 0, 0, 3), res.Value(0, 0, 0, 4), res.Value(0, 0, 0, 5))
	t.AddRow(row...)
	return []*Table{t}, nil
}
