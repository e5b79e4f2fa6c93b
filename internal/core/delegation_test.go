package core

import (
	"testing"

	"freshcache/internal/cache"
	"freshcache/internal/mobility"
	"freshcache/internal/trace"
)

// Delegation micro-scenario on the 5-node trace: nodes 1,2 caching, node
// 0 source, nodes 3,4 free relays. Node 4 issues queries but only ever
// meets node 3 — without delegation it can never be served.

func delegationEngine(t *testing.T, relays int, contacts []trace.Contact) *Engine {
	t.Helper()
	tr := &trace.Trace{Name: "deleg", N: 5, Duration: 1000, Contacts: contacts}
	tr.Normalize()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{
		Trace:           tr,
		Catalog:         microCatalog(t),
		Scheme:          NewHierarchical(),
		NumCachingNodes: 2,
		WarmupFraction:  0.1,
		QueryRelays:     relays,
		Workload:        cache.WorkloadConfig{QueryRate: 1.0 / 400, ZipfExponent: 1},
		Seed:            micDelegSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// micDelegSeed is chosen so the workload generator issues at least one
// query from node 4 early in the measurement phase (verified by the test
// itself, which skips otherwise — the schedule is deterministic).
const micDelegSeed = 5

func delegationContacts() []trace.Contact {
	return []trace.Contact{
		// Warmup shapes selection to {1,2} as in chainContacts.
		ct(0, 1, 10), ct(0, 1, 20), ct(0, 1, 30),
		ct(1, 2, 15), ct(1, 2, 25),
		ct(2, 4, 40),
		ct(0, 3, 50),
		// Measurement: the source keeps node 1 fresh; node 4 meets only
		// node 3, which shuttles between node 4 and caching node 1.
		ct(0, 1, 150), ct(0, 1, 450), ct(0, 1, 750),
		ct(3, 4, 300),
		ct(1, 3, 400),
		ct(3, 4, 500),
		ct(3, 4, 800),
		ct(1, 3, 850),
		ct(3, 4, 900),
	}
}

func TestDelegationServesOtherwiseUnreachableRequester(t *testing.T) {
	// Without delegation: node 4's queries can never be answered (it
	// only meets node 3, which is neither caching nor source).
	without := delegationEngine(t, 0, delegationContacts())
	if _, err := without.Run(); err != nil {
		t.Fatal(err)
	}
	node4Answered := func(e *Engine) (issued, answered int) {
		for _, q := range e.book.All() {
			if q.Requester == 4 {
				issued++
				if q.Served {
					answered++
				}
			}
		}
		return
	}
	issued, answered := node4Answered(without)
	if issued == 0 {
		t.Skip("workload issued no node-4 queries in window; adjust seed")
	}
	if answered != 0 {
		t.Fatalf("node 4 answered without delegation: %d/%d", answered, issued)
	}

	with := delegationEngine(t, 2, delegationContacts())
	res, err := with.Run()
	if err != nil {
		t.Fatal(err)
	}
	issued, answered = node4Answered(with)
	if answered == 0 {
		t.Fatalf("delegation failed to serve node 4 (%d issued)", issued)
	}
	if res.TransmissionsByKind["query"] == 0 {
		t.Fatal("no query hand-offs recorded")
	}
}

func TestDelegationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	run := func(relays int) (answered, delay float64) {
		eng, err := NewEngine(Config{
			Trace:           testScenarioTrace(t, 59),
			Catalog:         testScenarioCatalog(t, 4*mobility.Hour),
			Scheme:          NewHierarchical(),
			NumCachingNodes: 6,
			QueryRelays:     relays,
			Workload:        cache.WorkloadConfig{QueryRate: 1.0 / (2 * mobility.Hour), ZipfExponent: 1},
			Seed:            59,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.AnsweredOK, res.MeanAccessDelaySec
	}
	a0, d0 := run(0)
	a3, d3 := run(3)
	t.Logf("relays=0: answered=%.3f delay=%.0fs; relays=3: answered=%.3f delay=%.0fs", a0, d0, a3, d3)
	// Delegation must not reduce coverage and should cut access delay.
	if a3 < a0-0.01 {
		t.Fatalf("delegation reduced coverage: %v vs %v", a3, a0)
	}
	if d3 >= d0 {
		t.Fatalf("delegation did not cut delay: %v vs %v", d3, d0)
	}
}

func TestDelegationRespectsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	run := func(relays int) int {
		eng, err := NewEngine(Config{
			Trace:           testScenarioTrace(t, 61),
			Catalog:         testScenarioCatalog(t, 4*mobility.Hour),
			Scheme:          NewDirect(),
			NumCachingNodes: 6,
			QueryRelays:     relays,
			Workload:        cache.WorkloadConfig{QueryRate: 1.0 / (4 * mobility.Hour), ZipfExponent: 1},
			Seed:            61,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TransmissionsByKind["query"]
	}
	q1, q4 := run(1), run(4)
	if q1 == 0 || q4 <= q1 {
		t.Fatalf("hand-offs don't scale with budget: %d vs %d", q1, q4)
	}
}

func TestDelegationDropsExpiredResponses(t *testing.T) {
	// Relay fetches v0 (gen 100, lifetime 600) at t=400 but only meets
	// the requester at t=750, after expiry: the response must not be
	// delivered; the query stays unserved.
	contacts := []trace.Contact{
		ct(0, 1, 10), ct(0, 1, 20), ct(0, 1, 30),
		ct(1, 2, 15), ct(1, 2, 25),
		ct(2, 4, 40),
		ct(0, 3, 50),
		ct(0, 1, 150), // fill caching node 1
		ct(3, 4, 300), // hand-off
		ct(1, 3, 400), // fetch v0
		ct(3, 4, 750), // response expired in transit
	}
	eng := delegationEngine(t, 2, contacts)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, q := range eng.book.All() {
		if q.Requester == 4 && q.Served && !q.Valid {
			t.Fatalf("expired response delivered: %+v", q)
		}
	}
}

func TestDelegationValidation(t *testing.T) {
	cfg := Config{
		Trace:           testScenarioTrace(t, 1),
		Catalog:         testScenarioCatalog(t, mobility.Hour),
		Scheme:          NewDirect(),
		NumCachingNodes: 4,
		QueryRelays:     -1,
	}
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("negative query relays accepted")
	}
}
