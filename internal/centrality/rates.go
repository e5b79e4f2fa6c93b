package centrality

import (
	"fmt"
	"math"
	"slices"

	"freshcache/internal/trace"
)

// RateView is read-only access to pairwise contact-rate knowledge. The
// converged RateStore implements it, as do the per-node local views of
// DistributedEstimator — protocols written against RateView work with
// either perfect or gossip-propagated knowledge.
type RateView interface {
	// N returns the number of nodes.
	N() int
	// Rate returns the believed contact rate of the pair (a, b) in 1/s
	// (zero for unknown pairs and a == b).
	Rate(a, b trace.NodeID) float64
	// AppendCommonNeighbors appends to dst, in ascending ID order, every
	// node c with Rate(a, c) > 0 and Rate(c, b) > 0, and returns the
	// extended slice. These are the only relays through which a two-hop
	// path from a to b can ever complete.
	AppendCommonNeighbors(dst []CommonNeighbor, a, b trace.NodeID) []CommonNeighbor
}

// CommonNeighbor is a node that meets both ends of a pair (a, b): the
// relay of a two-hop path a → ID → b, with both legs' rates.
type CommonNeighbor struct {
	ID    trace.NodeID
	RateA float64 // Rate(a, ID)
	RateB float64 // Rate(ID, b)
}

// neighbor is one entry of a node's row: a node it meets and the pair's
// contact rate.
type neighbor struct {
	id   trace.NodeID
	rate float64
}

// RateStore is an immutable snapshot of symmetric pairwise contact rates
// over N nodes. Each node's row lists the nodes it meets, with their
// nonzero rates, in ascending ID order, so memory and iteration are
// O(nodes + pairs that meet) at every network size. Pairs that never meet
// have no entry and read as rate 0.
//
// FromTrace, Estimator.Rates, RatesBetweenSnapshots and RatesFromPairs
// build the one implementation; the unexported method seals the
// interface, so NCL selection and centrality scores can walk the rows
// themselves.
type RateStore interface {
	RateView
	// rows returns every node's row, indexed by node ID.
	rows() [][]neighbor
}

// rateTable is the RateStore implementation: all rows are carved from one
// array, sized before it is filled.
type rateTable struct {
	nbr [][]neighbor
}

var _ RateStore = (*rateTable)(nil)

// buildRates returns the store over n nodes holding rate(i) for the i-th
// of pairs, which must be ascending packed pairs (see packPair). One pass
// sizes every row, so all rows are carved from a single array; a second
// pass fills them in pair order, which keeps each row ascending: a node's
// lower-ID neighbors (pairs led by the neighbor) all come before its
// higher-ID ones (pairs led by the node), each group in ascending order.
func buildRates(n int, pairs []uint64, rate func(i int) float64) RateStore {
	deg := make([]int, n)
	for _, p := range pairs {
		deg[p>>32]++
		deg[uint32(p)]++
	}
	all := make([]neighbor, 2*len(pairs))
	rows := make([][]neighbor, n)
	off := 0
	for a, d := range deg {
		rows[a] = all[off : off : off+d]
		off += d
	}
	for i, p := range pairs {
		a, b, r := trace.NodeID(p>>32), trace.NodeID(uint32(p)), rate(i)
		rows[a] = append(rows[a], neighbor{id: b, rate: r})
		rows[b] = append(rows[b], neighbor{id: a, rate: r})
	}
	return &rateTable{nbr: rows}
}

// RatesFromPairs builds the store over n nodes from explicit rates of
// unordered pairs, keyed by either orientation. Zero rates are left out;
// a pair given twice, a self-pair, a node outside [0, n) and a negative
// or non-finite rate are errors.
func RatesFromPairs(n int, pairs map[[2]trace.NodeID]float64) (RateStore, error) {
	if n <= 0 {
		return nil, fmt.Errorf("centrality: RatesFromPairs: non-positive node count %d", n)
	}
	byPair := make(map[uint64]float64, len(pairs))
	for p, r := range pairs {
		a, b := p[0], p[1]
		switch {
		case a < 0 || b < 0 || int(a) >= n || int(b) >= n:
			return nil, fmt.Errorf("centrality: RatesFromPairs: pair (%d,%d) outside %d nodes", a, b, n)
		case a == b:
			return nil, fmt.Errorf("centrality: RatesFromPairs: self-pair (%d,%d)", a, b)
		case r < 0 || math.IsNaN(r) || math.IsInf(r, 0):
			return nil, fmt.Errorf("centrality: RatesFromPairs: pair (%d,%d) has rate %v", a, b, r)
		}
		k := packPair(a, b)
		if _, dup := byPair[k]; dup {
			return nil, fmt.Errorf("centrality: RatesFromPairs: pair (%d,%d) given twice", a, b)
		}
		byPair[k] = r
	}
	keys := make([]uint64, 0, len(byPair))
	for k, r := range byPair {
		if r > 0 {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return buildRates(n, keys, func(i int) float64 { return byPair[keys[i]] }), nil
}

// N returns the number of nodes.
func (s *rateTable) N() int { return len(s.nbr) }

func (s *rateTable) rows() [][]neighbor { return s.nbr }

// Rate returns the contact rate of the pair (a, b); zero for pairs that
// never meet and for a == b.
func (s *rateTable) Rate(a, b trace.NodeID) float64 {
	row := s.nbr[a]
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row[m].id < b {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(row) && row[lo].id == b {
		return row[lo].rate
	}
	return 0
}

// AppendCommonNeighbors implements RateView by merging the two rows.
func (s *rateTable) AppendCommonNeighbors(dst []CommonNeighbor, a, b trace.NodeID) []CommonNeighbor {
	ra, rb := s.nbr[a], s.nbr[b]
	dst = slices.Grow(dst, min(len(ra), len(rb)))
	for i, j := 0, 0; i < len(ra) && j < len(rb); {
		switch {
		case ra[i].id < rb[j].id:
			i++
		case ra[i].id > rb[j].id:
			j++
		default:
			dst = append(dst, CommonNeighbor{ID: ra[i].id, RateA: ra[i].rate, RateB: rb[j].rate})
			i++
			j++
		}
	}
	return dst
}

// emptyView is an allocation-free all-zero RateView.
type emptyView int

func (v emptyView) N() int                         { return int(v) }
func (v emptyView) Rate(a, b trace.NodeID) float64 { return 0 }
func (v emptyView) AppendCommonNeighbors(dst []CommonNeighbor, a, b trace.NodeID) []CommonNeighbor {
	return dst
}

// EmptyView returns an allocation-free RateView over n nodes in which no
// pair ever meets: the knowledge a node has before any observation time
// has elapsed.
func EmptyView(n int) RateView { return emptyView(n) }
