package cache

import (
	"math"
	"slices"
	"testing"

	"freshcache/internal/trace"
)

func testWorkload() WorkloadConfig {
	return WorkloadConfig{QueryRate: 1.0 / 600, ZipfExponent: 1.0}
}

func TestWorkloadValidate(t *testing.T) {
	if err := testWorkload().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []WorkloadConfig{
		{QueryRate: 0, ZipfExponent: 1},
		{QueryRate: 1, ZipfExponent: 0},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = append(bad,
			WorkloadConfig{QueryRate: v, ZipfExponent: 1},
			WorkloadConfig{QueryRate: 1, ZipfExponent: v})
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestGenerateQueries checks the schedule's contract: the queries come
// requester by requester in ascending node order, each requester's run is
// in issue-time order inside the window, IDs are left for the dispatcher
// to assign, and every query names a known item.
func TestGenerateQueries(t *testing.T) {
	cat := testCatalog(t, 5)
	const nodes, from, to = 10, 1000.0, 1000.0 + 86400
	qs, err := GenerateQueries(testWorkload(), cat, nodes, from, to, 42)
	if err != nil {
		t.Fatal(err)
	}
	// 10 nodes * 1 query/600s * 86400s = ~1440 expected.
	if len(qs) < 1000 || len(qs) > 2000 {
		t.Fatalf("generated %d queries, expected ~1440", len(qs))
	}
	perNode := make([]int, nodes)
	for i, q := range qs {
		if q.ID != 0 {
			t.Fatalf("query %d numbered %d before dispatch", i, q.ID)
		}
		if q.IssuedAt < from || q.IssuedAt >= to {
			t.Fatalf("query at %v outside window", q.IssuedAt)
		}
		if q.Item < 0 || int(q.Item) >= 5 {
			t.Fatalf("query item %d out of range", q.Item)
		}
		if q.Requester < 0 || int(q.Requester) >= nodes {
			t.Fatalf("query requester %d out of range", q.Requester)
		}
		if i > 0 {
			prev := qs[i-1]
			switch {
			case q.Requester < prev.Requester:
				t.Fatalf("query %d: requester %d after %d", i, q.Requester, prev.Requester)
			case q.Requester == prev.Requester && q.IssuedAt < prev.IssuedAt:
				t.Fatalf("query %d: requester %d's run goes back from %v to %v", i, q.Requester, prev.IssuedAt, q.IssuedAt)
			}
		}
		perNode[q.Requester]++
	}
	// Every node issues (about 144 each), so every node has a run.
	for node, n := range perNode {
		if n == 0 {
			t.Fatalf("node %d issued no query: %v", node, perNode)
		}
	}
}

func TestGenerateQueriesDeterministic(t *testing.T) {
	cat := testCatalog(t, 3)
	a, err := GenerateQueries(testWorkload(), cat, 5, 0, 86400, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateQueries(testWorkload(), cat, 5, 0, 86400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatal("same seed, different schedules")
	}
}

func TestGenerateQueriesZipfSkew(t *testing.T) {
	cat := testCatalog(t, 10)
	qs, err := GenerateQueries(WorkloadConfig{QueryRate: 1.0 / 60, ZipfExponent: 1.2}, cat, 20, 0, 86400, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 10)
	for _, q := range qs {
		counts[q.Item]++
	}
	if counts[0] <= counts[9]*2 {
		t.Fatalf("no popularity skew: %v", counts)
	}
}

func TestGenerateQueriesErrors(t *testing.T) {
	cat := testCatalog(t, 2)
	if _, err := GenerateQueries(WorkloadConfig{}, cat, 5, 0, 100, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := GenerateQueries(testWorkload(), cat, 0, 0, 100, 1); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := GenerateQueries(testWorkload(), cat, 5, 100, 100, 1); err == nil {
		t.Fatal("empty window accepted")
	}
}

// TestQueryBookReserve: after Reserve, issuing the whole schedule fills
// each requester's share of the one array exactly, so no list regrows.
func TestQueryBookReserve(t *testing.T) {
	cat := testCatalog(t, 3)
	const nodes = 6
	qs, err := GenerateQueries(testWorkload(), cat, nodes, 0, 86400, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := NewQueryBook(nodes, 3)
	b.Reserve(qs)
	share := make([]int, nodes)
	for i := range qs {
		b.Issue(&qs[i])
		share[qs[i].Requester]++
	}
	for node := range trace.NodeID(nodes) {
		got := b.Pending(node)
		if len(got) != share[node] || cap(got) != share[node] {
			t.Fatalf("node %d: %d pending with capacity %d, want %d of each", node, len(got), cap(got), share[node])
		}
	}
	if all := b.All(); len(all) != len(qs) || cap(all) != len(qs) {
		t.Fatalf("log holds %d with capacity %d, want %d of each", len(all), cap(all), len(qs))
	}
}

func TestQueryBookLifecycle(t *testing.T) {
	cat := testCatalog(t, 2)
	it, _ := cat.Item(0)
	b := NewQueryBook(5, 2)
	q := &Query{ID: 0, Requester: 3, Item: 0, IssuedAt: 10}
	b.Issue(q)
	if got := b.Pending(3); len(got) != 1 || got[0] != q {
		t.Fatalf("pending = %v", got)
	}
	if got := b.Pending(4); len(got) != 0 {
		t.Fatalf("wrong node has pending queries: %v", got)
	}
	// Served at t=150 with version 0 (generated at 0, epoch 0): current
	// version at 150 is 1 (R=100), so not fresh but valid (lifetime 200).
	c := Copy{Item: 0, Version: 0, GeneratedAt: 0, ReceivedAt: 50}
	if err := b.Resolve(q, it, c, 0, 150); err != nil {
		t.Fatal(err)
	}
	if !q.Served || q.ServedAt != 150 || q.ServedVersion != 0 {
		t.Fatalf("resolution: %+v", q)
	}
	if q.Fresh {
		t.Fatal("stale copy marked fresh")
	}
	if !q.Valid {
		t.Fatal("unexpired copy marked invalid")
	}
	if got := b.Pending(3); len(got) != 0 {
		t.Fatal("resolved query still pending")
	}
	if len(b.All()) != 1 {
		t.Fatalf("log length %d", len(b.All()))
	}
}

func TestQueryBookFreshAndExpired(t *testing.T) {
	cat := testCatalog(t, 1)
	it, _ := cat.Item(0)
	b := NewQueryBook(2, 1)

	fresh := &Query{ID: 0, Requester: 1, Item: 0, IssuedAt: 10}
	b.Issue(fresh)
	if err := b.Resolve(fresh, it, Copy{Item: 0, Version: 0, GeneratedAt: 0}, 0, 50); err != nil {
		t.Fatal(err)
	}
	if !fresh.Fresh || !fresh.Valid {
		t.Fatalf("fresh copy misclassified: %+v", fresh)
	}

	expired := &Query{ID: 1, Requester: 1, Item: 0, IssuedAt: 10}
	b.Issue(expired)
	if err := b.Resolve(expired, it, Copy{Item: 0, Version: 0, GeneratedAt: 0}, 0, 250); err != nil {
		t.Fatal(err)
	}
	if expired.Fresh {
		t.Fatal("old version marked fresh at t=250")
	}
	if expired.Valid {
		t.Fatal("copy past lifetime marked valid")
	}
}

func TestQueryBookResolveErrors(t *testing.T) {
	cat := testCatalog(t, 2)
	it, _ := cat.Item(0)
	b := NewQueryBook(2, 2)
	q := &Query{ID: 0, Requester: 1, Item: 0, IssuedAt: 10}
	b.Issue(q)
	if err := b.Resolve(q, it, Copy{Item: 1}, 0, 50); err == nil {
		t.Fatal("wrong-item resolution accepted")
	}
	if err := b.Resolve(q, it, Copy{Item: 0}, 0, 50); err != nil {
		t.Fatal(err)
	}
	if err := b.Resolve(q, it, Copy{Item: 0}, 0, 60); err == nil {
		t.Fatal("double resolution accepted")
	}
}

func TestQueryRateScalesCount(t *testing.T) {
	cat := testCatalog(t, 2)
	low, err := GenerateQueries(WorkloadConfig{QueryRate: 1.0 / 3600, ZipfExponent: 1}, cat, 10, 0, 86400, 1)
	if err != nil {
		t.Fatal(err)
	}
	high, err := GenerateQueries(WorkloadConfig{QueryRate: 4.0 / 3600, ZipfExponent: 1}, cat, 10, 0, 86400, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(high)) / float64(len(low))
	if math.Abs(ratio-4) > 1 {
		t.Fatalf("rate scaling ratio = %v, want ~4", ratio)
	}
}

// FuzzQueryBookCounts drives a book through arbitrary sequences of Issue,
// Resolve, Pending and clock advances, and checks that every (node, item)
// count equals the tally of the node's pending list after each step, and
// the tally of Pending(node) at the end.
func FuzzQueryBookCounts(f *testing.F) {
	f.Add([]byte{0, 0, 0, 7, 1, 0, 2, 3})
	f.Add([]byte{0, 1, 0, 9, 0, 17, 3, 40, 0, 1, 3, 30, 2, 1, 1, 1, 1, 0})
	f.Add([]byte{0, 2, 0, 2, 0, 2, 1, 1, 3, 60, 1, 0, 2, 2, 3, 255, 0, 5})
	const nodes, items = 4, 3
	f.Fuzz(func(t *testing.T, ops []byte) {
		cat := testCatalog(t, items)
		b := NewQueryBook(nodes, items)
		now := 0.0
		check := func(node trace.NodeID, qs []*Query) {
			t.Helper()
			var tally [items]int32
			for _, q := range qs {
				tally[q.Item]++
			}
			if got := b.PendingCounts(node); !slices.Equal(got, tally[:]) {
				t.Fatalf("node %d: counts %v, pending list tallies %v", node, got, tally)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 4 {
			case 0:
				b.Issue(&Query{
					ID:        len(b.All()),
					Requester: trace.NodeID(arg % nodes),
					Item:      ItemID(arg / nodes % items),
					IssuedAt:  now,
				})
			case 1:
				if all := b.All(); len(all) > 0 {
					q := all[arg%len(all)]
					it, _ := cat.Item(q.Item)
					// Resolving a query twice is an error that must leave
					// the counts alone.
					_ = b.Resolve(q, it, Copy{Item: q.Item}, 0, now)
				}
			case 2:
				b.Pending(trace.NodeID(arg % nodes))
			case 3:
				now += float64(arg)
			}
			for node := range trace.NodeID(nodes) {
				check(node, b.pending[node])
			}
		}
		for node := range trace.NodeID(nodes) {
			check(node, b.Pending(node))
		}
	})
}
