// Package core implements the paper's contribution: distributed,
// hierarchical maintenance of cache freshness in opportunistic mobile
// networks. Each caching node is responsible for refreshing a specific set
// of other caching nodes (the refresh hierarchy, hierarchy.go), and
// probabilistic replication through relay nodes (replication.go) ensures
// each refresh arrives within the item's freshness window with at least
// the required probability. The package also contains every baseline the
// evaluation compares against (schemes.go) and the simulation engine that
// drives them over a contact trace (engine.go).
package core

import (
	"cmp"
	"fmt"
	"slices"

	"freshcache/internal/centrality"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// DirectProb is the probability that a node with contact rate `rate` to a
// destination meets it (and can hand over a refresh) within t seconds,
// under the exponential inter-contact model.
func DirectProb(rate, t float64) float64 {
	return stats.ExpCDF(rate, t)
}

// TwoHopProb is the probability that a copy handed to a relay reaches the
// destination within t seconds: the holder must first meet the relay
// (rate holderRelay) and the relay must then meet the destination (rate
// relayDest). It is the CDF of the sum of the two exponential legs.
func TwoHopProb(holderRelay, relayDest, t float64) float64 {
	return stats.HypoExpCDF(holderRelay, relayDest, t)
}

// RelayPlan is the outcome of probabilistic replication for one
// (responsible node, destination) pair: the set of relays to hand copies
// to, and the analytical probability the destination is refreshed within
// the budget by the direct path or any relay path.
type RelayPlan struct {
	Dest trace.NodeID
	// Relays to hand copies to, in selection (descending usefulness)
	// order.
	Relays []trace.NodeID
	// DirectProb is the direct holder→dest delivery probability within the
	// budget.
	DirectProb float64
	// AchievedProb aggregates direct and relay paths.
	AchievedProb float64
	// Satisfied records whether AchievedProb met the requirement.
	Satisfied bool
}

// PlanReplication implements the paper's probabilistic replication: given
// the holder (the node responsible for refreshing dest), the remaining
// time budget, and the required delivery probability pReq, it selects the
// smallest relay set such that
//
//	1 − (1−p_direct) · Π_r (1−p_r)  ≥  pReq
//
// where p_r is the two-hop delivery probability through relay r. Relays
// are considered in descending p_r, so the set is greedy-minimal. maxRelays
// bounds the set (0 = unbounded). Candidates with no useful path (p_r = 0)
// are never selected. When the requirement cannot be met even with every
// useful candidate, the plan contains all of them and Satisfied is false —
// the protocol still does its best.
func PlanReplication(rates centrality.RateView, holder, dest trace.NodeID, candidates []trace.NodeID,
	budget, pReq float64, maxRelays int) (RelayPlan, error) {
	return planReplication(rates, holder, dest, candidates, budget, pReq, maxRelays, new(planBuffers))
}

// planBuffers is PlanReplication's working memory. A scheme keeps one for
// its whole run. relays is append-only: each plan's relay list is carved
// from it and capped, so memoized plans can share it and a plan allocates
// nothing once it has grown.
type planBuffers struct {
	common []centrality.CommonNeighbor
	cands  []scoredRelay
	relays []trace.NodeID
}

// scoredRelay is a relay candidate with its two-hop delivery probability.
type scoredRelay struct {
	id trace.NodeID
	p  float64
}

// planReplication is PlanReplication with caller-owned working memory.
func planReplication(rates centrality.RateView, holder, dest trace.NodeID, candidates []trace.NodeID,
	budget, pReq float64, maxRelays int, buf *planBuffers) (RelayPlan, error) {
	if holder == dest {
		return RelayPlan{}, fmt.Errorf("core: holder and destination are both %d", holder)
	}
	if budget <= 0 {
		return RelayPlan{}, fmt.Errorf("core: non-positive replication budget %v", budget)
	}
	if pReq <= 0 || pReq > 1 {
		return RelayPlan{}, fmt.Errorf("core: required probability %v outside (0,1]", pReq)
	}

	plan := RelayPlan{Dest: dest}
	plan.DirectProb = DirectProb(rates.Rate(holder, dest), budget)
	plan.AchievedProb = plan.DirectProb
	if plan.AchievedProb >= pReq {
		plan.Satisfied = true
		return plan, nil
	}

	// TwoHopProb is exactly 0 unless both legs have a nonzero rate, so
	// only the common neighbors of holder and dest can be useful relays
	// (neither endpoint is its own neighbor).
	common := rates.AppendCommonNeighbors(buf.common[:0], holder, dest)
	cands := slices.Grow(buf.cands[:0], len(common))
	// Walk the candidates against the ascending common neighbors: sorted
	// candidates cost one pass over each list, and a candidate below its
	// predecessor restarts the walk, so any order finds every match.
	j := 0
	for i, r := range candidates {
		if i > 0 && r < candidates[i-1] {
			j = 0
		}
		for j < len(common) && common[j].ID < r {
			j++
		}
		if j == len(common) || common[j].ID != r {
			continue
		}
		if p := TwoHopProb(common[j].RateA, common[j].RateB, budget); p > 0 {
			cands = append(cands, scoredRelay{id: r, p: p})
		}
	}
	buf.common, buf.cands = common, cands
	slices.SortFunc(cands, func(a, b scoredRelay) int {
		if a.p != b.p {
			return cmp.Compare(b.p, a.p)
		}
		return cmp.Compare(a.id, b.id)
	})

	miss := 1 - plan.DirectProb
	start := len(buf.relays)
	for _, c := range cands {
		if maxRelays > 0 && len(buf.relays)-start >= maxRelays {
			break
		}
		buf.relays = append(buf.relays, c.id)
		miss *= 1 - c.p
		plan.AchievedProb = 1 - miss
		if plan.AchievedProb >= pReq {
			plan.Satisfied = true
			break
		}
	}
	if end := len(buf.relays); end > start {
		plan.Relays = buf.relays[start:end:end]
	}
	return plan, nil
}
