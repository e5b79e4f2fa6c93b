package cache

import (
	"fmt"
	"math"

	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// Query is one data-access request issued by a mobile node. It is pulled:
// the query stays pending at the requester until the requester contacts a
// node that holds a copy of the item (a caching node or the source).
type Query struct {
	ID        int
	Requester trace.NodeID
	Item      ItemID
	IssuedAt  float64

	// Resolution, meaningful when Served.
	Served            bool
	ServedAt          float64
	ServedVersion     int
	ServedGeneratedAt float64
	// Fresh records whether the served copy was the newest version at
	// service time; Valid whether it was within the item's lifetime.
	Fresh bool
	Valid bool
}

// WorkloadConfig describes the query workload: every node issues queries
// as a Poisson process, items chosen by a Zipf popularity law.
type WorkloadConfig struct {
	// QueryRate is each node's query rate in queries/second.
	QueryRate float64
	// ZipfExponent skews item popularity; values near 1 are typical.
	ZipfExponent float64
}

// Validate checks the workload parameters.
func (c WorkloadConfig) Validate() error {
	// Written so that NaN, which fails every comparison, fails each test.
	if !(c.QueryRate > 0) || math.IsInf(c.QueryRate, 1) {
		return fmt.Errorf("cache: query rate %v is not a finite positive number", c.QueryRate)
	}
	if !(c.ZipfExponent > 0) || math.IsInf(c.ZipfExponent, 1) {
		return fmt.Errorf("cache: zipf exponent %v is not a finite positive number", c.ZipfExponent)
	}
	return nil
}

// GenerateQueries pre-computes the deterministic query schedule for all n
// nodes over [from, to), node by node: each requester's queries form one
// contiguous run in issue-time order, node 0's run first. Pre-computing
// (rather than scheduling online) keeps the RNG stream independent of
// protocol behavior, so every scheme sees the identical workload. IDs are
// left 0 for the caller to number the queries as it dispatches them.
func GenerateQueries(cfg WorkloadConfig, catalog *Catalog, n int, from, to float64, seed int64) ([]Query, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("cache: non-positive node count %d", n)
	}
	if to <= from {
		return nil, fmt.Errorf("cache: empty workload window [%v,%v)", from, to)
	}
	rng := stats.Derive(seed, "cache/workload")
	pick := stats.Zipf(rng, cfg.ZipfExponent, catalog.Len())
	// The count is Poisson with this mean, so room for the mean plus four
	// standard deviations saves regrowing the slice; an absurd mean gets
	// no hint.
	var queries []Query
	if mean := float64(n) * cfg.QueryRate * (to - from); mean < 1<<24 {
		queries = make([]Query, 0, int(mean+4*math.Sqrt(mean))+1)
	}
	for node := 0; node < n; node++ {
		t := from + stats.Exp(rng, cfg.QueryRate)
		for t < to {
			queries = append(queries, Query{
				Requester: trace.NodeID(node),
				Item:      ItemID(pick()),
				IssuedAt:  t,
			})
			t += stats.Exp(rng, cfg.QueryRate)
		}
	}
	return queries, nil
}

// QueryBook tracks pending queries per requester and the full access log.
// Alongside each requester's pending list it keeps the list's tally per
// item, so a contact can tell which items the requester waits for without
// walking the list.
type QueryBook struct {
	items int
	// pending[node] is the node's pending list in issue order.
	pending [][]*Query
	// counts[node*items+item] is how many entries of pending[node] ask
	// for item; Issue and Resolve keep it exact.
	counts []int32
	all    []*Query
}

// NewQueryBook creates an empty book for queries from nodes [0, n) for
// items [0, items).
func NewQueryBook(n, items int) *QueryBook {
	return &QueryBook{
		items:   items,
		pending: make([][]*Query, n),
		counts:  make([]int32, n*items),
	}
}

// Reserve sizes an empty book for the schedule qs: each requester's
// pending list is carved from one shared array, with room for exactly
// that requester's queries in qs, and the log gets room for all of them,
// so issuing qs allocates nothing. A list still grows past its share by
// append, so a book without Reserve works the same.
func (b *QueryBook) Reserve(qs []Query) {
	share := make([]int, len(b.pending))
	for i := range qs {
		share[qs[i].Requester]++
	}
	lists := make([]*Query, len(qs))
	off := 0
	for node, k := range share {
		b.pending[node] = lists[off : off : off+k]
		off += k
	}
	b.all = make([]*Query, 0, len(qs))
}

// Issue registers a new pending query. Its requester and item must lie
// within the book's node and item ranges.
func (b *QueryBook) Issue(q *Query) {
	b.pending[q.Requester] = append(b.pending[q.Requester], q)
	b.counts[int(q.Requester)*b.items+int(q.Item)]++
	b.all = append(b.all, q)
}

// Pending returns the node's pending queries in issue order. The slice
// is the book's own and changes with it; callers must not modify it.
func (b *QueryBook) Pending(node trace.NodeID) []*Query { return b.pending[node] }

// PendingCounts returns the node's pending-list tally per item, indexed
// by ItemID. The slice is the book's own and changes with it; callers
// must not modify it.
func (b *QueryBook) PendingCounts(node trace.NodeID) []int32 {
	at := int(node) * b.items
	return b.counts[at : at+b.items]
}

// Resolve marks a pending query served by the given copy. epoch is the
// measurement-phase start used to compute the item's newest version.
func (b *QueryBook) Resolve(q *Query, it Item, c Copy, epoch, now float64) error {
	if q.Served {
		return fmt.Errorf("cache: query %d resolved twice", q.ID)
	}
	if c.Item != q.Item {
		return fmt.Errorf("cache: query %d for item %d resolved with copy of %d", q.ID, q.Item, c.Item)
	}
	q.Served = true
	q.ServedAt = now
	q.ServedVersion = c.Version
	q.ServedGeneratedAt = c.GeneratedAt
	q.Fresh = c.Version >= CurrentVersion(it, epoch, now)
	q.Valid = !c.Expired(it, now)

	qs := b.pending[q.Requester]
	for i, p := range qs {
		if p == q {
			b.pending[q.Requester] = append(qs[:i], qs[i+1:]...)
			b.counts[int(q.Requester)*b.items+int(q.Item)]--
			break
		}
	}
	return nil
}

// All returns the full query log (served and not).
func (b *QueryBook) All() []*Query { return b.all }
