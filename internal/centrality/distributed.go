package centrality

import (
	"fmt"

	"freshcache/internal/trace"
)

// contactVector is an immutable snapshot of one node's direct-contact
// counts with every other node, taken at asOf. Views exchange these by
// pointer, so a merge is O(N) pointer/timestamp comparisons.
type contactVector struct {
	owner  trace.NodeID
	asOf   float64
	counts []int // counts[j] = contacts between owner and j up to asOf
}

// DistributedEstimator models how nodes actually learn contact rates in
// this paper family: each node counts its own contacts directly, and on
// every contact the two endpoints exchange everything they know
// transitively (each node's freshest snapshot of every other node's
// contact vector wins by timestamp). A node's view of a remote pair is
// therefore stale by however long gossip takes to reach it — exactly the
// imperfection whose impact the knowledge experiments measure.
type DistributedEstimator struct {
	n     int
	start float64
	// own[i] is node i's live direct-contact counts (mutable).
	own [][]int
	// ownDirty[i] marks that own[i] changed since its last snapshot.
	ownDirty []bool
	// ownSnap[i] is the latest immutable snapshot of own[i].
	ownSnap []*contactVector
	// carried[i][j] is node i's freshest known snapshot of node j's
	// vector (nil if i has never heard of j's contacts; carried[i][i]
	// is unused — a node reads its own live counts).
	carried [][]*contactVector
}

// NewDistributedEstimator creates the estimator for n nodes observing
// from startTime.
func NewDistributedEstimator(n int, startTime float64) *DistributedEstimator {
	if n <= 0 {
		panic(fmt.Sprintf("centrality: non-positive node count %d", n))
	}
	d := &DistributedEstimator{
		n:        n,
		start:    startTime,
		own:      make([][]int, n),
		ownDirty: make([]bool, n),
		ownSnap:  make([]*contactVector, n),
		carried:  make([][]*contactVector, n),
	}
	for i := range d.own {
		d.own[i] = make([]int, n)
		d.carried[i] = make([]*contactVector, n)
	}
	return d
}

// N returns the number of nodes.
func (d *DistributedEstimator) N() int { return d.n }

// snapshot returns an up-to-date immutable snapshot of node i's own
// vector, creating one only when the live counts changed.
func (d *DistributedEstimator) snapshot(i trace.NodeID, now float64) *contactVector {
	if d.ownSnap[i] == nil || d.ownDirty[i] {
		counts := make([]int, d.n)
		copy(counts, d.own[i])
		d.ownSnap[i] = &contactVector{owner: i, asOf: now, counts: counts}
		d.ownDirty[i] = false
	}
	return d.ownSnap[i]
}

// Observe records a contact between a and b at time now and performs the
// transitive knowledge exchange between them.
func (d *DistributedEstimator) Observe(a, b trace.NodeID, now float64) {
	d.own[a][b]++
	d.own[b][a]++
	d.ownDirty[a] = true
	d.ownDirty[b] = true

	// Each endpoint hands the other a fresh snapshot of its own vector…
	snapA := d.snapshot(a, now)
	snapB := d.snapshot(b, now)
	d.adopt(b, snapA)
	d.adopt(a, snapB)

	// …and everything it carries about third parties, freshest wins.
	for j := 0; j < d.n; j++ {
		va, vb := d.carried[a][j], d.carried[b][j]
		switch {
		case va == nil && vb == nil:
		case vb == nil || (va != nil && va.asOf > vb.asOf):
			d.carried[b][j] = va
		case va == nil || vb.asOf > va.asOf:
			d.carried[a][j] = vb
		}
	}
}

func (d *DistributedEstimator) adopt(node trace.NodeID, v *contactVector) {
	cur := d.carried[node][v.owner]
	if cur == nil || v.asOf > cur.asOf {
		d.carried[node][v.owner] = v
	}
}

// localView is node owner's read-only view of the network's rates.
type localView struct {
	d     *DistributedEstimator
	owner trace.NodeID
	now   float64
}

// View returns node owner's rate view as of `now`. Rates are believed
// counts over the full observation window; pairs the owner has never
// heard about read as zero.
func (d *DistributedEstimator) View(owner trace.NodeID, now float64) (RateView, error) {
	if owner < 0 || int(owner) >= d.n {
		return nil, fmt.Errorf("centrality: no node %d", owner)
	}
	if now <= d.start {
		return nil, fmt.Errorf("centrality: no observation time elapsed (now=%v, start=%v)", now, d.start)
	}
	return &localView{d: d, owner: owner, now: now}, nil
}

// N implements RateView.
func (v *localView) N() int { return v.d.n }

// Rate implements RateView: the owner's own pairs read its live counts;
// remote pairs read the freshest carried snapshot of either endpoint's
// vector.
func (v *localView) Rate(a, b trace.NodeID) float64 {
	if a == b {
		return 0
	}
	window := v.now - v.d.start
	if a == v.owner || b == v.owner {
		other := a
		if a == v.owner {
			other = b
		}
		return float64(v.d.own[v.owner][other]) / window
	}
	count := 0
	if va := v.d.carried[v.owner][a]; va != nil {
		count = va.counts[b]
	}
	if vb := v.d.carried[v.owner][b]; vb != nil && vb.counts[a] > count {
		count = vb.counts[a]
	}
	return float64(count) / window
}

// AppendCommonNeighbors implements RateView. A local view keeps no
// per-node rows, so it tests every node through Rate.
func (v *localView) AppendCommonNeighbors(dst []CommonNeighbor, a, b trace.NodeID) []CommonNeighbor {
	for c := 0; c < v.d.n; c++ {
		ra, rb := v.Rate(a, trace.NodeID(c)), v.Rate(trace.NodeID(c), b)
		if ra > 0 && rb > 0 {
			dst = append(dst, CommonNeighbor{ID: trace.NodeID(c), RateA: ra, RateB: rb})
		}
	}
	return dst
}
