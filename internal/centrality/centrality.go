// Package centrality implements the contact-based metrics the scheme is
// built on: pairwise contact-rate estimation (the λij of the Poisson
// contact model), the cumulative-contact-probability centrality used in
// this paper family, and the greedy coverage-based selection of caching
// nodes (the Network Central Locations of Gao & Cao's cooperative-caching
// substrate).
package centrality

import (
	"fmt"
	"maps"
	"sort"

	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// FromTrace builds the oracle rate store from the contacts starting in
// [from, to), counting only observed pairs (O(contacts), never n²). This
// is the converged-knowledge estimator used when a protocol is granted
// full rate information; the online counterpart is Estimator.
func FromTrace(t *trace.Trace, from, to float64) (RateStore, error) {
	if to <= from {
		return nil, fmt.Errorf("centrality: empty window [%v,%v)", from, to)
	}
	if t.N <= 0 {
		return nil, fmt.Errorf("centrality: FromTrace: non-positive node count %d", t.N)
	}
	counts := make(map[int]int)
	for _, c := range t.Contacts {
		if c.Start >= from && c.Start < to {
			counts[trace.PairKey(c.A, c.B, t.N)]++
		}
	}
	return ratesFromCounts(t.N, counts, to-from), nil
}

// Estimator accumulates contact observations online and converts them to
// rates over the observed window, exactly as a node running the protocol
// would (contacts counted over elapsed time). A single Estimator models
// the network-wide view that nodes converge to by transitively exchanging
// contact histories on every contact — the standard assumption of this
// paper family. Counts live in a map keyed by trace.PairKey, so an
// estimator costs O(pairs that meet) at any node count.
//
// The zero Estimator is ready for Reset.
type Estimator struct {
	n      int
	start  float64
	counts map[int]int
}

// NewEstimator returns an estimator for n nodes observing from startTime.
func NewEstimator(n int, startTime float64) (*Estimator, error) {
	e := new(Estimator)
	if err := e.Reset(n, startTime); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset empties the estimator for n nodes observing from startTime. It
// keeps the count map's storage, so a run that reuses an estimator does
// not grow a fresh map.
func (e *Estimator) Reset(n int, startTime float64) error {
	if n <= 0 {
		return fmt.Errorf("centrality: estimator for non-positive node count %d", n)
	}
	e.n, e.start = n, startTime
	if e.counts == nil {
		e.counts = make(map[int]int)
	}
	clear(e.counts)
	return nil
}

// Observe records one contact between a and b. The contact time is not
// stored; rates derive from counts over the window.
func (e *Estimator) Observe(a, b trace.NodeID) {
	e.counts[trace.PairKey(a, b, e.n)]++
}

// Snapshot returns an immutable copy of the current pairwise counts, for
// windowed estimation via RatesBetweenSnapshots.
func (e *Estimator) Snapshot() CountSnapshot {
	return CountSnapshot{n: e.n, counts: maps.Clone(e.counts)}
}

// Rates snapshots the estimated rate store as of `now`.
func (e *Estimator) Rates(now float64) (RateStore, error) {
	window := now - e.start
	if window <= 0 {
		return nil, fmt.Errorf("centrality: no observation time elapsed (now=%v, start=%v)", now, e.start)
	}
	return ratesFromCounts(e.n, e.counts, window), nil
}

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
// centrality is not used.
func SelectCachingNodes(s RateStore, window float64, k int) ([]trace.NodeID, error) {
	return SelectCachingNodesExcluding(s, window, k, nil)
}

// SelectCachingNodesExcluding is SelectCachingNodes with a set of nodes
// barred from selection — the engine excludes data sources, which already
// hold their own items and would waste a caching slot. A pair that never
// meets adds exactly 0 to a gain and multiplies notCovered by exactly 1,
// so both loops run over rows only.
func SelectCachingNodesExcluding(s RateStore, window float64, k int, exclude map[trace.NodeID]bool) ([]trace.NodeID, error) {
	n := s.N()
	if k <= 0 || k > n-len(exclude) {
		return nil, fmt.Errorf("centrality: cannot select %d caching nodes out of %d (%d excluded)", k, n, len(exclude))
	}
	// notCovered[j] = Π over selected s of (1 - p_sj); 1 when nothing
	// selected yet.
	notCovered := make([]float64, n)
	for j := range notCovered {
		notCovered[j] = 1
	}
	selected := make([]trace.NodeID, 0, k)
	inSet := make([]bool, n)
	rows := s.rows()

	for len(selected) < k {
		best := trace.NodeID(-1)
		bestGain := -1.0
		for cand, row := range rows {
			if inSet[cand] || exclude[trace.NodeID(cand)] {
				continue
			}
			// Gain: candidate covers itself fully plus shrinks every other
			// node's not-covered probability by (1 - p_cand,j).
			gain := notCovered[cand]
			for _, nb := range row {
				if !inSet[nb.id] {
					gain += notCovered[nb.id] * stats.ExpCDF(nb.rate, window)
				}
			}
			if gain > bestGain {
				bestGain = gain
				best = trace.NodeID(cand)
			}
		}
		selected = append(selected, best)
		inSet[best] = true
		notCovered[best] = 0
		for _, nb := range rows[best] {
			notCovered[nb.id] *= 1 - stats.ExpCDF(nb.rate, window)
		}
	}
	return selected, nil
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
// excluding the given nodes (data sources). seed drives PlaceRandom only.
func Select(p Placement, s RateStore, window float64, k int, exclude map[trace.NodeID]bool, seed int64) ([]trace.NodeID, error) {
	n := s.N()
	if k <= 0 || k > n-len(exclude) {
		return nil, fmt.Errorf("centrality: cannot select %d caching nodes out of %d (%d excluded)", k, n, len(exclude))
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
