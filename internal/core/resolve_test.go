package core

import (
	"reflect"
	"testing"

	"freshcache/internal/cache"
	"freshcache/internal/trace"
)

// resolveEngine runs a 5-node trace that has only warmup contacts (those
// of chainContacts, so nodes 1 and 2 cache and node 0 sources both
// items) to its end. The engine is left with its stores, contact budget
// rules and loss stream in place and an empty query book, so a test can
// issue queries and drive single contacts by hand. It returns the engine,
// one caching node as provider, and a node that is neither caching nor a
// source as requester.
func resolveEngine(t *testing.T, mutate func(*Config)) (eng *Engine, provider, requester trace.NodeID) {
	t.Helper()
	tr := &trace.Trace{Name: "resolve", N: 5, Duration: 1000, Contacts: chainContacts()[:7]}
	tr.Normalize()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	item := cache.Item{Source: 0, RefreshInterval: 300, FreshnessWindow: 300, Lifetime: 600, Size: 1}
	items := []cache.Item{item, item}
	items[1].ID = 1
	cat, err := cache.NewCatalog(items)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Trace:           tr,
		Catalog:         cat,
		Scheme:          NewHierarchical(),
		NumCachingNodes: 2,
		WarmupFraction:  0.1, // epoch = 100: version v is generated at 100+300v
		Seed:            1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err = NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(eng.book.All()) != 0 {
		t.Fatalf("the warmup-only run issued %d queries", len(eng.book.All()))
	}
	provider = eng.rt.CachingNodes[0]
	for n := trace.NodeID(1); n < 5; n++ {
		if !eng.rt.IsCachingNode(n) {
			return eng, provider, n
		}
	}
	t.Fatal("every non-source node caches")
	return nil, 0, 0
}

// issue registers one pending query per listed item, in order, for the
// requester.
func issue(eng *Engine, requester trace.NodeID, at float64, items ...cache.ItemID) []*cache.Query {
	qs := make([]*cache.Query, len(items))
	for i, id := range items {
		qs[i] = &cache.Query{ID: len(eng.book.All()), Requester: requester, Item: id, IssuedAt: at}
		eng.book.Issue(qs[i])
	}
	return qs
}

// TestUnservedLookupsKeepLFUState: a provider whose only copy of the
// pending item has expired serves nothing, yet each of the requester's k
// pending queries still looked the copy up. The store must end exactly
// as k Get calls at the contact leave it: use count raised by k, last use
// at the contact time.
func TestUnservedLookupsKeepLFUState(t *testing.T) {
	eng, provider, requester := resolveEngine(t, func(c *Config) { c.CachePolicy = cache.EvictLFU })
	st := eng.stores[provider]
	ref, err := cache.NewStoreWithPolicy(eng.cfg.Catalog, 0, cache.EvictLFU)
	if err != nil {
		t.Fatal(err)
	}
	// Version 0 was generated at 100; with a 600 s lifetime it has
	// expired by 900. The provider holds nothing of item 1.
	expired := cache.Copy{Item: 0, Version: 0, GeneratedAt: 100, ReceivedAt: 150}
	for _, s := range []*cache.Store{st, ref} {
		if ok, err := s.Put(expired, 150); !ok || err != nil {
			t.Fatalf("put: %v %v", ok, err)
		}
	}
	const k, now = 3, 900.0
	qs := issue(eng, requester, 850, 0, 1, 0, 0)
	for range k {
		ref.Get(0, now)
	}
	eng.resolveQueries(eng.net.ManualContact(requester, provider, now, 5))
	if !reflect.DeepEqual(st, ref) {
		t.Fatalf("store after the contact:\n%+v\nwant the state of %d Gets at %v:\n%+v", st, k, now, ref)
	}
	for _, q := range qs {
		if q.Served {
			t.Fatalf("query %d served from an expired copy", q.ID)
		}
	}
	if got := eng.net.Transmissions("data"); got != 0 {
		t.Fatalf("%d data transmissions, want 0", got)
	}
}

// TestServingOrderUnderBudgetAndLoss: when a provider can serve, pending
// queries are answered in issue order across items, and the first lost Send
// ends that requester's service for the contact. The contact budget the name
// mentions is gone, so loss is the only way a Send fails; the name is kept
// so the test's history stays comparable.
func TestServingOrderUnderBudgetAndLoss(t *testing.T) {
	t.Run("loss", func(t *testing.T) {
		const now = 900.0
		eng, provider, requester := resolveEngine(t, func(c *Config) { c.DropProb = 0.5 })
		// Version 2 was generated at 700 and is valid until 1300.
		for id := range cache.ItemID(2) {
			if ok, err := eng.stores[provider].Put(cache.Copy{Item: id, Version: 2, GeneratedAt: 700, ReceivedAt: 800}, 800); !ok || err != nil {
				t.Fatalf("put: %v %v", ok, err)
			}
		}
		items := make([]cache.ItemID, 8)
		for i := range items {
			items[i] = cache.ItemID(1 - i%2) // 1, 0, 1, 0, ...
		}
		qs := issue(eng, requester, 850, items...)
		eng.resolveQueries(eng.net.ManualContact(requester, provider, now, 2))
		// The served queries must be the first ones issued.
		m := 0
		for m < len(qs) && qs[m].Served {
			if qs[m].ServedAt != now || qs[m].ServedVersion != 2 {
				t.Fatalf("query %d resolution: %+v", qs[m].ID, *qs[m])
			}
			m++
		}
		for _, q := range qs[m:] {
			if q.Served {
				t.Fatalf("query %d served after unserved query %d", q.ID, qs[m].ID)
			}
		}
		if m == len(qs) {
			t.Fatal("no send was lost; the loss path went unexercised")
		}
		if got := eng.net.Lost(); got != 1 {
			t.Fatalf("%d sends lost, want 1: service must stop at the first", got)
		}
		if got := eng.net.Transmissions("data"); got != m {
			t.Fatalf("%d data transmissions for %d answers", got, m)
		}
	})
}
