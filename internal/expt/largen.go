package expt

import (
	"fmt"

	"freshcache/internal/core"
	"freshcache/internal/mobility"
	"freshcache/internal/trace"
)

// largeNNodes is the full-size node count of E21; quick mode trims it so
// the smoke suite stays fast while still exercising mobility's sparse
// pair sampling (both sizes are above its 1024-node threshold).
const (
	largeNNodes      = 10000
	largeNQuickNodes = 2000
)

// largeNTrace generates the E21 trace for the given size and seed.
func largeNTrace(n int, seed int64) (*trace.Trace, error) {
	return mobility.LargeCommunity(n).Generate(seed)
}

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
	tr, err := g.Generate(opts.Seed)
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
	sc := defaultScenario("reality-like", opts.Seed) // preset field unused by RunOnTrace
	sc.NumCachingNodes = 64
	// Inter-community rates bound the refresh delay (p50 around 5 h on
	// this trace), so the default 4 h freshness window is infeasible at
	// this scale; a 12 h cycle is the realistic operating point.
	sc.RefreshInterval = 12 * mobility.Hour
	res, _, err := opts.runScenario(fmt.Sprintf("E21/large-%d", n), sc, core.NewHierarchical(), tr)
	if err != nil {
		return nil, err
	}
	row := []any{n, g.Communities, len(tr.Contacts), int(res.SimulatedEventCount)}
	if opts.Timings {
		row = append(row, res.WallClockSeconds)
	}
	row = append(row, res.FreshnessRatio, res.ValidAnswers, res.TxPerVersion)
	t.AddRow(row...)
	return []*Table{t}, nil
}
