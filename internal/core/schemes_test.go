package core

import (
	"testing"

	"freshcache/internal/cache"
	"freshcache/internal/metrics"
	"freshcache/internal/trace"
)

// Micro-scenario machinery: a 5-node handcrafted trace where node 0 is the
// item source, nodes 1 and 2 end up as the caching nodes, and nodes 3, 4
// are potential relays. Warmup is [0,100); versions are generated at
// t=100, 400, 700 (R=300), with freshness window 300.

func microCatalog(t *testing.T) *cache.Catalog {
	t.Helper()
	cat, err := cache.NewCatalog([]cache.Item{{
		ID: 0, Source: 0, RefreshInterval: 300, FreshnessWindow: 300, Lifetime: 600, Size: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func microEngine(t *testing.T, s Scheme, contacts []trace.Contact) *Engine {
	t.Helper()
	tr := &trace.Trace{Name: "micro", N: 5, Duration: 1000, Contacts: contacts}
	tr.Normalize()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{
		Trace:           tr,
		Catalog:         microCatalog(t),
		Scheme:          s,
		NumCachingNodes: 2,
		WarmupFraction:  0.1, // epoch = 100
		PReq:            0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// ct is shorthand for a 5-second contact.
func ct(a, b trace.NodeID, at float64) trace.Contact {
	return trace.Contact{A: a, B: b, Start: at, End: at + 5}
}

// chainContacts wires warmup so that selection picks {1,2} and the tree is
// 0 → 1 → 2 (node 2 unreachable from the source directly).
func chainContacts() []trace.Contact {
	return []trace.Contact{
		// Warmup: rates λ01=0.03, λ12=0.02, λ24=0.01, λ03=0.01.
		ct(0, 1, 10), ct(0, 1, 20), ct(0, 1, 30),
		ct(1, 2, 15), ct(1, 2, 25),
		ct(2, 4, 40),
		ct(0, 3, 50),
		// Measurement: source→1, then 1→2, for v0 and v1; v2 undeliverable.
		ct(0, 1, 150), ct(1, 2, 200),
		ct(0, 1, 450), ct(1, 2, 500),
	}
}

// relayContacts wires warmup so that node 2 never meets the source or node
// 1, and node 3 is the only path: 0→3→2.
func relayContacts() []trace.Contact {
	return []trace.Contact{
		// Warmup: λ01=0.03, λ03=0.02, λ32=0.02, λ24=0.01.
		ct(0, 1, 10), ct(0, 1, 20), ct(0, 1, 30),
		ct(0, 3, 15), ct(0, 3, 25),
		ct(3, 2, 35), ct(3, 2, 45),
		ct(2, 4, 55),
		// Measurement: the only way v0 reaches node 2 is 0→3 (hand-off)
		// then 3→2 (delivery).
		ct(0, 1, 150),
		ct(0, 3, 160),
		ct(3, 2, 250),
	}
}

func deliveriesTo(c *metrics.Collector, node trace.NodeID) []metrics.Delivery {
	var out []metrics.Delivery
	for _, d := range c.Deliveries() {
		if d.Node == node {
			out = append(out, d)
		}
	}
	return out
}

func TestHierarchicalChainDelivery(t *testing.T) {
	eng := microEngine(t, NewHierarchical(), chainContacts())
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	rt := eng.Runtime()
	// Selection must be {1, 2} with sources excluded.
	want := map[trace.NodeID]bool{1: true, 2: true}
	for _, cn := range rt.CachingNodes {
		if !want[cn] {
			t.Fatalf("caching nodes = %v, want {1,2}", rt.CachingNodes)
		}
	}

	// The tree must delegate node 2 to node 1 (source never meets 2).
	s, ok := eng.cfg.Scheme.(*refreshScheme)
	if !ok {
		t.Fatal("scheme type")
	}
	tree := s.trees[0]
	if tree.Parent[1] != 0 || tree.Parent[2] != 1 {
		t.Fatalf("tree parents: %+v", tree.Parent)
	}

	// v0: 0→1 at 150, 1→2 at 200. v1 (gen 400): 0→1 at 450, 1→2 at 500.
	d1 := deliveriesTo(eng.Collector(), 1)
	d2 := deliveriesTo(eng.Collector(), 2)
	if len(d1) != 2 || len(d2) != 2 {
		t.Fatalf("deliveries: node1=%d node2=%d, want 2 and 2", len(d1), len(d2))
	}
	if d1[0].DeliveredAt != 150 || d1[0].Version != 0 {
		t.Fatalf("node1 first delivery: %+v", d1[0])
	}
	if d2[0].DeliveredAt != 200 || d2[0].Version != 0 {
		t.Fatalf("node2 first delivery: %+v", d2[0])
	}
	if d2[1].DeliveredAt != 500 || d2[1].Version != 1 {
		t.Fatalf("node2 second delivery: %+v", d2[1])
	}
	for _, d := range append(d1, d2...) {
		if !d.OnTime {
			t.Fatalf("delivery late: %+v (window 300)", d)
		}
	}
	if res.VersionsGenerated != 3 {
		t.Fatalf("versions = %d, want 3 (t=100,400,700)", res.VersionsGenerated)
	}
	// All four deliveries were direct parent→child: 4 refresh sends, no
	// relay sends.
	if got := res.TransmissionsByKind["refresh"]; got != 4 {
		t.Fatalf("refresh tx = %d, want 4", got)
	}
	if got := res.TransmissionsByKind["relay"]; got != 0 {
		t.Fatalf("relay tx = %d, want 0", got)
	}
}

func TestHierarchicalRelayDelivery(t *testing.T) {
	eng := microEngine(t, NewHierarchical(), relayContacts())
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	d2 := deliveriesTo(eng.Collector(), 2)
	if len(d2) != 1 {
		t.Fatalf("node2 deliveries = %d, want 1 (via relay)", len(d2))
	}
	if d2[0].DeliveredAt != 250 || d2[0].Version != 0 || !d2[0].OnTime {
		t.Fatalf("relay delivery: %+v", d2[0])
	}
	if got := res.TransmissionsByKind["relay"]; got != 1 {
		t.Fatalf("relay tx = %d, want 1 (the 0→3 hand-off)", got)
	}
	// refresh tx: 0→1 at 150 (v0) and 3→2 at 250.
	if got := res.TransmissionsByKind["refresh"]; got != 2 {
		t.Fatalf("refresh tx = %d, want 2", got)
	}
	// The plan for destination 2 must have been analytically satisfiable:
	// two-hop 0→3→2 with λ=0.02 each over budget 300.
	if res.SchemeStats["plansTotal"] == 0 || res.SchemeStats["satisfiedRatio"] == 0 {
		t.Fatalf("planner stats: %v", res.SchemeStats)
	}
}

func TestHierarchicalNoRepCannotUseRelay(t *testing.T) {
	eng := microEngine(t, NewHierarchicalNoRep(), relayContacts())
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(deliveriesTo(eng.Collector(), 2)) != 0 {
		t.Fatal("norep delivered through a relay")
	}
	if got := res.TransmissionsByKind["relay"]; got != 0 {
		t.Fatalf("relay tx = %d, want 0", got)
	}
}

func TestNoRefreshOnlyFirstVersion(t *testing.T) {
	eng := microEngine(t, NewNoRefresh(), chainContacts())
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// NoRefresh fills caches once, from the source only (star, no relays):
	// node 1 gets v0 at its direct contact; node 2 never meets the source
	// and stays empty. Crucially, v1 and v2 are never pushed anywhere.
	d1 := deliveriesTo(eng.Collector(), 1)
	if len(d1) != 1 || d1[0].Version != 0 {
		t.Fatalf("norefresh deliveries to node1: %+v", d1)
	}
	if d2 := deliveriesTo(eng.Collector(), 2); len(d2) != 0 {
		t.Fatalf("norefresh deliveries to node2: %+v", d2)
	}
	if res.VersionsGenerated != 3 {
		t.Fatalf("versions = %d", res.VersionsGenerated)
	}
}

func TestDirectIgnoresRelaysAndChains(t *testing.T) {
	eng := microEngine(t, NewDirect(), relayContacts())
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Only 0→1 at 150 can deliver; node 2 never meets the source.
	if len(deliveriesTo(eng.Collector(), 1)) != 1 {
		t.Fatal("direct failed to deliver to node1")
	}
	if len(deliveriesTo(eng.Collector(), 2)) != 0 {
		t.Fatal("direct delivered to unreachable node2")
	}
	if res.SourceTxShare != 1 {
		t.Fatalf("direct source share = %v, want 1", res.SourceTxShare)
	}
}

func TestDirectReplicatedUsesRelayFromSource(t *testing.T) {
	eng := microEngine(t, NewDirectReplicated(), relayContacts())
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	d2 := deliveriesTo(eng.Collector(), 2)
	if len(d2) != 1 || d2[0].DeliveredAt != 250 {
		t.Fatalf("direct-rep relay delivery: %+v", d2)
	}
	if got := res.TransmissionsByKind["relay"]; got != 1 {
		t.Fatalf("relay tx = %d", got)
	}
}

func TestEpidemicReachesEveryoneAndCounts(t *testing.T) {
	eng := microEngine(t, NewEpidemic(), relayContacts())
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Epidemic: 0→1 (refresh), 0→3 (relay), 3→2 (refresh).
	if len(deliveriesTo(eng.Collector(), 2)) != 1 {
		t.Fatal("epidemic failed to reach node2")
	}
	if got := res.TransmissionsByKind["refresh"]; got != 2 {
		t.Fatalf("refresh tx = %d, want 2", got)
	}
	if got := res.TransmissionsByKind["relay"]; got != 1 {
		t.Fatalf("relay tx = %d, want 1", got)
	}
}

func TestRelayCopyLifecycle(t *testing.T) {
	// Relay copies outlive the on-time window (a late refresh beats no
	// refresh) but expire with the data's lifetime. v0: generated at 100,
	// window 300 (on-time until 400), lifetime 600 (deliverable until 700).
	contacts := []trace.Contact{
		ct(0, 1, 10), ct(0, 1, 20), ct(0, 1, 30),
		ct(0, 3, 15), ct(0, 3, 25),
		ct(3, 2, 35), ct(3, 2, 45),
		ct(2, 4, 55),
		ct(0, 3, 160), // hand-off to the relay
		ct(3, 2, 450), // past the window but within the lifetime: delivers, late
	}
	eng := microEngine(t, NewHierarchical(), contacts)
	_, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range deliveriesTo(eng.Collector(), 2) {
		if d.Version == 0 && d.DeliveredAt == 450 {
			found = true
			if d.OnTime {
				t.Fatalf("late delivery marked on-time: %+v", d)
			}
		}
	}
	if !found {
		t.Fatal("valid-but-late relay copy not delivered")
	}
}

func TestExpiredRelayCopiesDropped(t *testing.T) {
	// The relay meets the destination only after the lifetime
	// (expire = 100+600 = 700): the entry must be dropped, not delivered.
	contacts := []trace.Contact{
		ct(0, 1, 10), ct(0, 1, 20), ct(0, 1, 30),
		ct(0, 3, 15), ct(0, 3, 25),
		ct(3, 2, 35), ct(3, 2, 45),
		ct(2, 4, 55),
		ct(0, 3, 160), // hand-off
		ct(3, 2, 750), // past v0's lifetime
	}
	eng := microEngine(t, NewHierarchical(), contacts)
	_, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deliveriesTo(eng.Collector(), 2) {
		if d.Version == 0 && d.DeliveredAt == 750 {
			t.Fatalf("expired relay copy delivered: %+v", d)
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Node 2 reachable both directly (slow) and via relay; when the relay
	// delivers first, a later direct contact must not re-deliver or
	// re-send.
	contacts := []trace.Contact{
		// Warmup: λ02 small but nonzero; relay path strong.
		ct(0, 1, 10), ct(0, 1, 20), ct(0, 1, 30),
		ct(0, 2, 5),
		ct(0, 3, 15), ct(0, 3, 25),
		ct(3, 2, 35), ct(3, 2, 45),
		// Measurement: relay delivers v0 at 250; source meets 2 at 300.
		ct(0, 3, 160),
		ct(3, 2, 250),
		ct(0, 2, 300),
	}
	eng := microEngine(t, NewDirectReplicated(), contacts)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	d2 := deliveriesTo(eng.Collector(), 2)
	count := 0
	for _, d := range d2 {
		if d.Version == 0 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("v0 delivered %d times to node2, want 1", count)
	}
	// The 0→2 contact at 300 must not carry a redundant refresh: total
	// refresh tx = (3→2 at 250) + any to node 1 if it is caching.
	_ = res
}

func TestHierarchicalBareStrictlyTreeBound(t *testing.T) {
	// The bare hierarchy must not peer-sync or use relays: with the relay
	// scenario, node 2 (reachable only via relay 3) stays unrefreshed.
	eng := microEngine(t, NewHierarchicalBare(), relayContacts())
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(deliveriesTo(eng.Collector(), 2)) != 0 {
		t.Fatal("bare hierarchy delivered off-tree")
	}
	if res.TransmissionsByKind["relay"] != 0 {
		t.Fatal("bare hierarchy used relays")
	}
}
