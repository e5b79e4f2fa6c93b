package core

import (
	"testing"

	"freshcache/internal/cache"
	"freshcache/internal/metrics"
	"freshcache/internal/mobility"
	"freshcache/internal/network"
)

// runWith runs the shared end-to-end scenario with config tweaks applied.
func runWith(t *testing.T, s Scheme, seed int64, mutate func(*Config)) metrics.Result {
	t.Helper()
	cfg := Config{
		Trace:           testScenarioTrace(t, seed),
		Catalog:         testScenarioCatalog(t, 4*mobility.Hour),
		Scheme:          s,
		NumCachingNodes: 6,
		Workload:        cache.WorkloadConfig{QueryRate: 1.0 / (2 * mobility.Hour), ZipfExponent: 1.0},
		Seed:            seed,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDistributedKnowledgeCloseToOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	oracle := runWith(t, NewHierarchical(), 13, nil)
	dist := runWith(t, NewHierarchical(), 13, func(c *Config) { c.Knowledge = KnowledgeDistributed })
	direct := runWith(t, NewDirect(), 13, nil)
	t.Logf("oracle=%.3f distributed=%.3f direct=%.3f",
		oracle.FreshnessRatio, dist.FreshnessRatio, direct.FreshnessRatio)
	// Imperfect knowledge costs something but the scheme must still beat
	// source-only refreshing and stay within reach of the oracle setting.
	if dist.FreshnessRatio <= direct.FreshnessRatio {
		t.Fatalf("distributed knowledge collapsed to direct: %v vs %v", dist.FreshnessRatio, direct.FreshnessRatio)
	}
	if dist.FreshnessRatio < 0.5*oracle.FreshnessRatio {
		t.Fatalf("distributed knowledge lost too much: %v vs oracle %v", dist.FreshnessRatio, oracle.FreshnessRatio)
	}
}

func TestDistributedKnowledgeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	a := runWith(t, NewHierarchical(), 4, func(c *Config) { c.Knowledge = KnowledgeDistributed })
	b := runWith(t, NewHierarchical(), 4, func(c *Config) { c.Knowledge = KnowledgeDistributed })
	if a.FreshnessRatio != b.FreshnessRatio || a.Transmissions != b.Transmissions {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestChurnDegradesFreshness(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	clean := runWith(t, NewHierarchical(), 17, nil)
	churned := runWith(t, NewHierarchical(), 17, func(c *Config) {
		// 50% duty cycle: nodes up 6h, down 6h on average.
		c.Churn = network.ChurnConfig{MeanUp: 6 * mobility.Hour, MeanDown: 6 * mobility.Hour}
	})
	t.Logf("clean=%.3f churned=%.3f", clean.FreshnessRatio, churned.FreshnessRatio)
	if churned.FreshnessRatio >= clean.FreshnessRatio {
		t.Fatalf("churn did not degrade freshness: %v vs %v", churned.FreshnessRatio, clean.FreshnessRatio)
	}
	if churned.FreshnessRatio <= 0 {
		t.Fatal("churn killed the protocol entirely")
	}
}

func TestMessageLossDegradesFreshness(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	clean := runWith(t, NewHierarchical(), 19, nil)
	lossy := runWith(t, NewHierarchical(), 19, func(c *Config) { c.DropProb = 0.5 })
	t.Logf("clean=%.3f lossy=%.3f", clean.FreshnessRatio, lossy.FreshnessRatio)
	if lossy.FreshnessRatio >= clean.FreshnessRatio {
		t.Fatalf("50%% loss did not degrade freshness: %v vs %v", lossy.FreshnessRatio, clean.FreshnessRatio)
	}
}

func TestSprayAndWaitBehaves(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	spray := runWith(t, NewSprayAndWait(), 29, nil)
	direct := runWith(t, NewDirect(), 29, nil)
	epidemic := runWith(t, NewEpidemic(), 29, nil)
	t.Logf("spray=%.3f (tx/ver %.1f) direct=%.3f epidemic=%.3f (tx/ver %.1f)",
		spray.FreshnessRatio, spray.TxPerVersion, direct.FreshnessRatio,
		epidemic.FreshnessRatio, epidemic.TxPerVersion)
	// Spraying 8 copies must beat source-only refreshing…
	if spray.FreshnessRatio <= direct.FreshnessRatio {
		t.Fatalf("spray %v not above direct %v", spray.FreshnessRatio, direct.FreshnessRatio)
	}
	// …and stay below flooding on both freshness and overhead.
	if spray.FreshnessRatio > epidemic.FreshnessRatio {
		t.Fatalf("spray %v above epidemic %v", spray.FreshnessRatio, epidemic.FreshnessRatio)
	}
	if spray.TxPerVersion >= epidemic.TxPerVersion {
		t.Fatalf("spray overhead %v not below epidemic %v", spray.TxPerVersion, epidemic.TxPerVersion)
	}
}

func TestRandomRelaySelectionUnderperformsPlanned(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	planned := runWith(t, NewHierarchical(), 37, nil)
	random := runWith(t, NewRandomReplicated(), 37, nil)
	t.Logf("planned=%.3f random=%.3f (tx %.1f vs %.1f)",
		planned.FreshnessRatio, random.FreshnessRatio, planned.TxPerVersion, random.TxPerVersion)
	// Random relays with the same budget must not beat the
	// analysis-driven selection (the whole point of the analysis).
	if random.FreshnessRatio > planned.FreshnessRatio+0.02 {
		t.Fatalf("random relays beat planned: %v vs %v", random.FreshnessRatio, planned.FreshnessRatio)
	}
}

func TestChurnWithLossStillDelivers(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	res := runWith(t, NewHierarchical(), 41, func(c *Config) {
		c.DropProb = 0.2
		c.Churn = network.ChurnConfig{MeanUp: 12 * mobility.Hour, MeanDown: 2 * mobility.Hour}
	})
	if res.Deliveries == 0 {
		t.Fatal("no deliveries under mild churn+loss")
	}
	if res.FreshnessRatio <= 0 {
		t.Fatal("zero freshness under mild churn+loss")
	}
}

func TestLoadBalanceMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	di := runWith(t, NewDirect(), 53, nil)
	hi := runWith(t, NewHierarchical(), 53, nil)
	t.Logf("direct: maxShare=%.3f gini=%.3f; hierarchical: maxShare=%.3f gini=%.3f",
		di.MaxNodeTxShare, di.LoadGini, hi.MaxNodeTxShare, hi.LoadGini)
	// With 3 sources, direct concentrates all load on 3 of 40 nodes.
	if di.LoadGini < 0.85 {
		t.Fatalf("direct load gini %v; expected near-total concentration", di.LoadGini)
	}
	// The hierarchy must spread the load: a lower hot-spot share and a
	// visibly lower Gini.
	if hi.MaxNodeTxShare >= di.MaxNodeTxShare {
		t.Fatalf("hierarchy hot spot %v not below direct %v", hi.MaxNodeTxShare, di.MaxNodeTxShare)
	}
	if hi.LoadGini >= di.LoadGini-0.05 {
		t.Fatalf("hierarchy gini %v not clearly below direct %v", hi.LoadGini, di.LoadGini)
	}
	if hi.MaxNodeTxShare <= 0 || hi.MaxNodeTxShare > 1 {
		t.Fatalf("hot-spot share out of range: %v", hi.MaxNodeTxShare)
	}
}
