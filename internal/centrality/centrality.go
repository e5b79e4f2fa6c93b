// Package centrality implements the contact-based metrics the scheme is
// built on: pairwise contact-rate estimation (the λij of the Poisson
// contact model), the cumulative-contact-probability centrality used in
// this paper family, and the greedy coverage-based selection of caching
// nodes (the Network Central Locations of Gao & Cao's cooperative-caching
// substrate).
package centrality

import (
	"fmt"
	"math"
	"sort"

	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// Scores computes each node's cumulative-contact-probability centrality:
// the expected fraction of other nodes it meets within the given time
// window, C_i = (1/(N-1)) Σ_j (1 − e^{−λij·T}). A pair that never meets
// adds exactly ExpCDF(0, T) = 0, so the sum runs over each node's row.
func Scores(s RateStore, window float64) []float64 {
	n := s.N()
	scores := make([]float64, n)
	if n <= 1 {
		return scores
	}
	for a, row := range s.rows() {
		var sum float64
		for _, nb := range row {
			sum += stats.ExpCDF(nb.rate, window)
		}
		scores[a] = sum / float64(n-1)
	}
	return scores
}

// Rank returns node IDs sorted by descending centrality score, ties broken
// by ascending ID for determinism.
func Rank(scores []float64) []trace.NodeID {
	ids := make([]trace.NodeID, len(scores))
	for i := range ids {
		ids[i] = trace.NodeID(i)
	}
	sort.SliceStable(ids, func(i, j int) bool {
		si, sj := scores[ids[i]], scores[ids[j]]
		if si != sj {
			return si > sj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// SelectCachingNodes picks k caching nodes (NCLs) by greedy marginal
// coverage: at each step it adds the node that most increases the expected
// number of nodes reachable within the window by at least one selected
// node, P_cov(j) = 1 − Π_{s∈S} (1 − p_sj). The first pick is therefore the
// highest-centrality node, and later picks favor nodes covering regions
// (communities) the current set misses — which is why plain top-k by
// centrality is not used. A node that meets no one adds nothing, so it is
// picked only when no other candidate is left.
func SelectCachingNodes(s RateStore, window float64, k int) ([]trace.NodeID, error) {
	return SelectCachingNodesExcluding(s, window, k, nil)
}

// SelectCachingNodesExcluding is SelectCachingNodes with a set of nodes
// barred from selection — the engine excludes data sources, which already
// hold their own items and would waste a caching slot. The window must be
// a finite positive number.
//
// Selection is exact lazy greedy (CELF). A pick only multiplies
// notCovered by factors in [0,1], so no gain grows between rounds, even in
// floating point: each term of the sum, taken in the same order, can only
// shrink. Every eligible candidate is scored once into a heap ordered by
// gain, then ID; each round takes the top if its gain is from this round,
// and otherwise rescores it and sifts it down. A fresh top outranks every
// stale gain, and stale gains bound current ones from above, so the picks
// are plain greedy's, lowest ID first among equal gains. A picked node's
// notCovered is exactly 0, so it adds exactly +0 to later gains, and a
// pair that never meets adds exactly 0 to a gain and multiplies notCovered
// by exactly 1, so gains and coverage updates run over rows only.
func SelectCachingNodesExcluding(s RateStore, window float64, k int, exclude map[trace.NodeID]bool) ([]trace.NodeID, error) {
	n := s.N()
	if k <= 0 || k > n-len(exclude) {
		return nil, fmt.Errorf("centrality: cannot select %d caching nodes out of %d (%d excluded)", k, n, len(exclude))
	}
	if err := checkWindow(window); err != nil {
		return nil, err
	}
	rows := s.rows()
	// notCovered[j] = Π over selected s of (1 - p_sj); 1 when nothing
	// selected yet.
	notCovered := make([]float64, n)
	for j := range notCovered {
		notCovered[j] = 1
	}
	// gain is how much candidate c would add to the expected coverage: it
	// covers itself fully and shrinks every other node's not-covered
	// probability by (1 - p_cj). A candidate that met no one covers
	// nothing, itself included: it could neither receive a refresh nor
	// serve another node's query, so it ranks below every candidate that
	// can still add coverage.
	gain := func(c trace.NodeID) float64 {
		if len(rows[c]) == 0 {
			return 0
		}
		g := notCovered[c]
		for _, nb := range rows[c] {
			g += notCovered[nb.id] * stats.ExpCDF(nb.rate, window)
		}
		return g
	}
	h := make(candidateHeap, 0, n-len(exclude))
	for c := range rows {
		if !exclude[trace.NodeID(c)] {
			h = append(h, candidate{gain: gain(trace.NodeID(c)), id: trace.NodeID(c)})
		}
	}
	h.init()
	selected := make([]trace.NodeID, 0, k)
	for len(selected) < k {
		top := &h[0]
		if top.round < len(selected) {
			top.gain, top.round = gain(top.id), len(selected)
			h.down(0)
			continue
		}
		best := top.id
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		h.down(0)
		selected = append(selected, best)
		notCovered[best] = 0
		for _, nb := range rows[best] {
			notCovered[nb.id] *= 1 - stats.ExpCDF(nb.rate, window)
		}
	}
	return selected, nil
}

// checkWindow rejects a centrality window that is not a finite positive
// number: a NaN gain would corrupt the selection heap's order, and a zero
// or negative window scores every pair 0.
func checkWindow(window float64) error {
	if !(window > 0) || math.IsInf(window, 1) {
		return fmt.Errorf("centrality: window %v is not a finite positive number", window)
	}
	return nil
}

// candidate is one eligible node in lazy greedy selection: its coverage
// gain as of the given round (the number of nodes selected when it was
// scored).
type candidate struct {
	gain  float64
	id    trace.NodeID
	round int
}

// candidateHeap is a binary max-heap of candidates by gain, lower ID
// first among equal gains.
type candidateHeap []candidate

func (h candidateHeap) before(i, j int) bool {
	return h[i].gain > h[j].gain || (h[i].gain == h[j].gain && h[i].id < h[j].id)
}

func (h candidateHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts the entry at i down to its place.
func (h candidateHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h.before(c+1, c) {
			c++
		}
		if !h.before(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Placement selects which nodes become caching nodes.
type Placement int

const (
	// PlaceGreedyCoverage is the paper family's NCL selection: greedy
	// marginal contact coverage (default).
	PlaceGreedyCoverage Placement = iota
	// PlaceTopCentrality takes the top-k nodes by centrality score,
	// ignoring coverage overlap.
	PlaceTopCentrality
	// PlaceRandom places caches uniformly at random — the placement
	// floor.
	PlaceRandom
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case PlaceGreedyCoverage:
		return "greedy-coverage"
	case PlaceTopCentrality:
		return "top-centrality"
	case PlaceRandom:
		return "random"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// Select picks k caching nodes under the given placement policy,
// excluding the given nodes (data sources). The window must be a finite
// positive number under every policy. seed drives PlaceRandom only.
func Select(p Placement, s RateStore, window float64, k int, exclude map[trace.NodeID]bool, seed int64) ([]trace.NodeID, error) {
	n := s.N()
	if k <= 0 || k > n-len(exclude) {
		return nil, fmt.Errorf("centrality: cannot select %d caching nodes out of %d (%d excluded)", k, n, len(exclude))
	}
	if err := checkWindow(window); err != nil {
		return nil, err
	}
	switch p {
	case PlaceGreedyCoverage:
		return SelectCachingNodesExcluding(s, window, k, exclude)
	case PlaceTopCentrality:
		ranked := Rank(Scores(s, window))
		out := make([]trace.NodeID, 0, k)
		for _, id := range ranked {
			if exclude[id] {
				continue
			}
			out = append(out, id)
			if len(out) == k {
				break
			}
		}
		return out, nil
	case PlaceRandom:
		rng := stats.Derive(seed, "centrality/random-placement")
		perm := rng.Perm(n)
		out := make([]trace.NodeID, 0, k)
		for _, idx := range perm {
			id := trace.NodeID(idx)
			if exclude[id] {
				continue
			}
			out = append(out, id)
			if len(out) == k {
				break
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("centrality: unknown placement %d", int(p))
	}
}
