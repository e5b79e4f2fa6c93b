package centrality

import (
	"fmt"
	"slices"

	"freshcache/internal/trace"
)

// Fold thresholds of the Estimator's log, in entries. A fold's two n-bucket
// histograms cost no more than the entries it sorts once the log holds n +
// foldFloor of them; foldCap keeps the log and its sort buffer at 256 KB
// each at any node count.
const (
	foldFloor = 2048
	foldCap   = 1 << 15
)

// maxNodes is the largest node count a packed pair can hold: each ID takes
// 32 bits.
const maxNodes = 1 << 32

// packPair returns the pair (a, b) in either orientation as one ascending
// key: the lower ID in the high 32 bits and the higher ID in the low 32.
// Keys sort as trace.PairKey does, lower ID first.
func packPair(a, b trace.NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// FromTrace builds the oracle rate store from the contacts starting in
// [from, to), counting only observed pairs (O(contacts), never n²). This
// is the converged-knowledge estimator used when a protocol is granted
// full rate information; it counts its window through an Estimator, the
// online counterpart.
func FromTrace(t *trace.Trace, from, to float64) (RateStore, error) {
	if to <= from {
		return nil, fmt.Errorf("centrality: empty window [%v,%v)", from, to)
	}
	if t.N <= 0 {
		return nil, fmt.Errorf("centrality: FromTrace: non-positive node count %d", t.N)
	}
	var e Estimator
	if err := e.Reset(t.N, from); err != nil {
		return nil, err
	}
	for _, c := range t.Contacts {
		if c.Start >= from && c.Start < to {
			e.Observe(c.A, c.B)
		}
	}
	return e.Rates(to)
}

// Estimator accumulates contact observations online and converts them to
// rates over the observed window, exactly as a node running the protocol
// would (contacts counted over elapsed time). A single Estimator models
// the network-wide view that nodes converge to by transitively exchanging
// contact histories on every contact — the standard assumption of this
// paper family.
//
// Observe appends the contact's packed pair to a log. A fold sorts the log
// and merges it into one ascending list of (pair, count), from which Rates
// fills a store's rows directly. The log folds when it holds as many
// entries as the list has pairs, but at least n + foldFloor and at most
// foldCap, so memory is O(pairs that meet + n) at any node count and a
// fold costs no more than the observations it folds until the list
// outgrows foldCap.
//
// The zero Estimator is ready for Reset.
type Estimator struct {
	n     int
	start float64
	// pairs lists every folded pair in ascending order, and counts[i] is
	// the number of contacts of pairs[i].
	pairs  []uint64
	counts []int
	// log holds the pairs observed since the last fold, in arrival order;
	// it folds on reaching foldAt entries. buf and hist are the fold's
	// sort buffer and bucket offsets.
	log    []uint64
	foldAt int
	buf    []uint64
	hist   []int32
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
// keeps the list's and the log's storage, so a run that reuses an
// estimator does not grow them again.
func (e *Estimator) Reset(n int, startTime float64) error {
	if n <= 0 || uint64(n) > maxNodes {
		return fmt.Errorf("centrality: estimator for node count %d outside [1, %d]", n, uint64(maxNodes))
	}
	e.n, e.start = n, startTime
	e.pairs, e.counts, e.log = e.pairs[:0], e.counts[:0], e.log[:0]
	e.setFoldAt()
	return nil
}

// Observe records one contact between a and b. The contact time is not
// stored; rates derive from counts over the window.
func (e *Estimator) Observe(a, b trace.NodeID) {
	e.log = append(e.log, packPair(a, b))
	if len(e.log) >= e.foldAt {
		e.fold()
	}
}

// setFoldAt sets the log length at which the next fold runs and makes
// room for it, so Observe's append never reallocates. The log must be
// empty. Its capacity at least doubles when it grows, and goes straight
// to foldCap once past a quarter of it, so the logs it outgrows sum to
// less than half the final one.
func (e *Estimator) setFoldAt() {
	e.foldAt = min(max(len(e.pairs), e.n+foldFloor), foldCap)
	if c := cap(e.log); c < e.foldAt {
		if c = max(e.foldAt, 2*c); 4*c > foldCap {
			c = foldCap
		}
		e.log = make([]uint64, 0, c)
	}
}

// fold sorts the log by pair, counts each pair's entries and merges the
// counts into the list, leaving the log empty.
func (e *Estimator) fold() {
	log := e.log
	if len(log) == 0 {
		return
	}
	if cap(e.hist) < e.n {
		e.hist = make([]int32, e.n)
	}
	hist := e.hist[:e.n]
	if cap(e.buf) < len(log) {
		e.buf = make([]uint64, cap(log))
	}
	buf := e.buf[:len(log)]
	// Two stable counting sorts, by the higher ID and then by the lower,
	// leave the log in ascending pair order.
	sortByID(buf, log, hist, 0)
	sortByID(log, buf, hist, 32)

	// Count each pair's run. Pairs already listed add their run to their
	// count; new pairs move to the front of the log, with their counts in
	// buf, in ascending order.
	pairs, counts := e.pairs, e.counts
	fresh, j := 0, 0
	for i := 0; i < len(log); {
		p, k := log[i], i+1
		for k < len(log) && log[k] == p {
			k++
		}
		run := k - i
		i = k
		for j < len(pairs) && pairs[j] < p {
			j++
		}
		if j < len(pairs) && pairs[j] == p {
			counts[j] += run
			continue
		}
		log[fresh], buf[fresh] = p, uint64(run)
		fresh++
	}

	// Merge the new pairs in from the back, in place: the write index
	// stays above every listed pair not yet moved.
	if fresh > 0 {
		m := len(pairs)
		pairs, counts = growTo(pairs, m+fresh), growTo(counts, m+fresh)
		i, w := m-1, m+fresh-1
		for k := fresh - 1; k >= 0; w-- {
			if i >= 0 && pairs[i] > log[k] {
				pairs[w], counts[w] = pairs[i], counts[i]
				i--
			} else {
				pairs[w], counts[w] = log[k], int(buf[k])
				k--
			}
		}
		e.pairs, e.counts = pairs, counts
	}
	e.log = log[:0]
	e.setFoldAt()
}

// sortByID counting-sorts the packed pairs of src into dst, stably, by the
// node ID in bits [shift, shift+32) of each; hist has one bucket per node.
func sortByID(dst, src []uint64, hist []int32, shift uint) {
	clear(hist)
	for _, p := range src {
		hist[uint32(p>>shift)]++
	}
	var off int32
	for id, c := range hist {
		hist[id] = off
		off += c
	}
	for _, p := range src {
		id := uint32(p >> shift)
		dst[hist[id]] = p
		hist[id]++
	}
}

// growTo returns s extended to length n, at least doubling its capacity
// when it must reallocate, so a list grown fold by fold allocates at most
// about twice its final size in all.
func growTo[E any](s []E, n int) []E {
	if n > cap(s) {
		s = append(make([]E, 0, max(n, 2*cap(s))), s...)
	}
	return s[:n]
}

// Snapshot returns an immutable copy of the current pairwise counts, for
// windowed estimation via RatesBetweenSnapshots. It copies the list, which
// the next fold rewrites in place.
func (e *Estimator) Snapshot() CountSnapshot {
	e.fold()
	return CountSnapshot{n: e.n, pairs: slices.Clone(e.pairs), counts: slices.Clone(e.counts)}
}

// Rates snapshots the estimated rate store as of `now`.
func (e *Estimator) Rates(now float64) (RateStore, error) {
	window := now - e.start
	if window <= 0 {
		return nil, fmt.Errorf("centrality: no observation time elapsed (now=%v, start=%v)", now, e.start)
	}
	e.fold()
	return buildRates(e.n, e.pairs, func(i int) float64 { return float64(e.counts[i]) / window }), nil
}

// CountSnapshot is an immutable copy of an Estimator's pairwise contact
// counts: its ascending pairs and their counts. Snapshots taken from the
// same estimator are totally ordered: counts only grow.
type CountSnapshot struct {
	n      int
	pairs  []uint64
	counts []int
}

// N returns the node count the snapshot covers (0 for a zero snapshot).
func (c CountSnapshot) N() int { return c.n }

// RatesBetweenSnapshots computes the rate store from the growth between
// two count snapshots over an observation window — the recent-history
// estimate used by periodic hierarchy rebuilds, which must track drift
// rather than average over all regimes ever seen. It merges the two
// ascending lists.
func RatesBetweenSnapshots(before, after CountSnapshot, window float64) (RateStore, error) {
	if window <= 0 {
		return nil, fmt.Errorf("centrality: non-positive window %v", window)
	}
	if before.n != after.n {
		return nil, fmt.Errorf("centrality: snapshot node counts differ (%d vs %d)", before.n, after.n)
	}
	n := after.n
	if n <= 0 {
		return nil, fmt.Errorf("centrality: snapshot of non-positive node count %d", n)
	}
	// Counts only grow: a pair that fell or vanished means the snapshots
	// are out of order. The merge meets pairs in ascending order, so the
	// error names the lowest such pair.
	backwards := func(p uint64) error {
		return fmt.Errorf("centrality: snapshot went backwards at pair (%d,%d)", p>>32, uint32(p))
	}
	pairs := make([]uint64, 0, len(after.pairs))
	grew := make([]int, 0, len(after.pairs))
	j := 0
	for i, p := range after.pairs {
		if j < len(before.pairs) && before.pairs[j] < p {
			return nil, backwards(before.pairs[j])
		}
		c := after.counts[i]
		if j < len(before.pairs) && before.pairs[j] == p {
			if c < before.counts[j] {
				return nil, backwards(p)
			}
			c -= before.counts[j]
			j++
		}
		if c > 0 {
			pairs, grew = append(pairs, p), append(grew, c)
		}
	}
	if j < len(before.pairs) {
		return nil, backwards(before.pairs[j])
	}
	return buildRates(n, pairs, func(i int) float64 { return float64(grew[i]) / window }), nil
}
