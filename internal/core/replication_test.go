package core

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"freshcache/internal/centrality"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

func TestDirectProb(t *testing.T) {
	if got := DirectProb(1, math.Log(2)); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("DirectProb = %v, want 0.5", got)
	}
	if DirectProb(0, 100) != 0 {
		t.Fatal("zero rate must give zero probability")
	}
}

func TestTwoHopProbBelowEitherLeg(t *testing.T) {
	p := TwoHopProb(0.01, 0.02, 300)
	if p <= 0 || p >= 1 {
		t.Fatalf("p = %v", p)
	}
	if p > DirectProb(0.01, 300) || p > DirectProb(0.02, 300) {
		t.Fatal("two-hop cannot beat a single leg")
	}
}

// ratesWith builds a rate store over n nodes from explicit pairs.
func ratesWith(n int, pairs map[[2]int]float64) centrality.RateStore {
	byNode := make(map[[2]trace.NodeID]float64, len(pairs))
	for p, r := range pairs {
		byNode[[2]trace.NodeID{trace.NodeID(p[0]), trace.NodeID(p[1])}] = r
	}
	m, err := centrality.RatesFromPairs(n, byNode)
	if err != nil {
		panic(err)
	}
	return m
}

// refPlan is the per-candidate definition of PlanReplication: every
// candidate's two-hop probability read through Rate, ranked by
// (probability descending, ID ascending), then taken greedily.
func refPlan(rates centrality.RateView, holder, dest trace.NodeID, candidates []trace.NodeID,
	budget, pReq float64, maxRelays int) RelayPlan {
	plan := RelayPlan{Dest: dest}
	plan.DirectProb = DirectProb(rates.Rate(holder, dest), budget)
	plan.AchievedProb = plan.DirectProb
	if plan.AchievedProb >= pReq {
		plan.Satisfied = true
		return plan
	}
	type scored struct {
		id trace.NodeID
		p  float64
	}
	var cands []scored
	for _, r := range candidates {
		if r == holder || r == dest {
			continue
		}
		if p := TwoHopProb(rates.Rate(holder, r), rates.Rate(r, dest), budget); p > 0 {
			cands = append(cands, scored{id: r, p: p})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].p != cands[j].p {
			return cands[i].p > cands[j].p
		}
		return cands[i].id < cands[j].id
	})
	miss := 1 - plan.DirectProb
	for _, c := range cands {
		if maxRelays > 0 && len(plan.Relays) >= maxRelays {
			break
		}
		plan.Relays = append(plan.Relays, c.id)
		miss *= 1 - c.p
		plan.AchievedProb = 1 - miss
		if plan.AchievedProb >= pReq {
			plan.Satisfied = true
			break
		}
	}
	return plan
}

// TestPlanReplicationMatchesBruteForce: planning from common neighbors must
// equal the per-candidate definition on random stores and on distributed
// local views, for every candidate list shape (all nodes, shuffled
// subsets that include the endpoints, empty, shuffled with every node
// twice), and with the working memory reused across calls as the schemes
// reuse it.
func TestPlanReplicationMatchesBruteForce(t *testing.T) {
	const n = 40
	rng := stats.NewRNG(11)
	var views []centrality.RateView
	for v := 0; v < 3; v++ {
		pairs := map[[2]int]float64{}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.3 {
					pairs[[2]int{a, b}] = stats.Exp(rng, 7200)
				}
			}
		}
		views = append(views, ratesWith(n, pairs))
	}
	d := centrality.NewDistributedEstimator(n, 0)
	for i := 0; i < 3000; i++ {
		a, b := trace.NodeID(rng.Intn(n)), trace.NodeID(rng.Intn(n))
		if a != b {
			d.Observe(a, b, float64(i))
		}
	}
	for _, owner := range []trace.NodeID{0, 17} {
		v, err := d.View(owner, 3000)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}

	all := make([]trace.NodeID, n)
	for i := range all {
		all[i] = trace.NodeID(i)
	}
	var buf planBuffers
	withRelays := 0
	for vi, v := range views {
		for trial := 0; trial < 40; trial++ {
			holder, dest := trace.NodeID(rng.Intn(n)), trace.NodeID(rng.Intn(n))
			if holder == dest {
				continue
			}
			cands := all
			switch trial % 4 {
			case 1:
				cands = nil
				for _, i := range rng.Perm(n)[:rng.Intn(n)] {
					cands = append(cands, trace.NodeID(i))
				}
			case 2:
				cands = []trace.NodeID{}
			case 3:
				cands = nil
				for _, i := range rng.Perm(2 * n) {
					cands = append(cands, trace.NodeID(i%n))
				}
			}
			budget := []float64{600, 3600, 12 * 3600}[trial%3]
			pReq := []float64{0.5, 0.9, 0.999}[trial%3]
			maxRelays := trial % 4
			want := refPlan(v, holder, dest, cands, budget, pReq, maxRelays)
			got, err := PlanReplication(v, holder, dest, cands, budget, pReq, maxRelays)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("view %d (%d→%d, %d candidates): plan\n%+v\nbrute force\n%+v", vi, holder, dest, len(cands), got, want)
			}
			reused, err := planReplication(v, holder, dest, cands, budget, pReq, maxRelays, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reused, want) {
				t.Fatalf("view %d (%d→%d): plan with reused buffers\n%+v\nbrute force\n%+v", vi, holder, dest, reused, want)
			}
			if len(want.Relays) > 0 {
				withRelays++
			}
		}
	}
	if withRelays < 50 {
		t.Fatalf("only %d plans chose relays; the comparison is too weak", withRelays)
	}
}

func TestPlanReplicationDirectSuffices(t *testing.T) {
	// Very high direct rate: no relays needed.
	m := ratesWith(5, map[[2]int]float64{{0, 1}: 1.0})
	plan, err := PlanReplication(m, 0, 1, []trace.NodeID{2, 3, 4}, 100, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Satisfied || len(plan.Relays) != 0 {
		t.Fatalf("plan = %+v, want satisfied with no relays", plan)
	}
	if plan.AchievedProb < 0.99 {
		t.Fatalf("achieved = %v", plan.AchievedProb)
	}
}

func TestPlanReplicationAddsRelays(t *testing.T) {
	// Weak direct path; two strong relays.
	m := ratesWith(5, map[[2]int]float64{
		{0, 1}: 0.0001,
		{0, 2}: 0.05, {2, 1}: 0.05,
		{0, 3}: 0.05, {3, 1}: 0.05,
		{0, 4}: 0.000001, {4, 1}: 0.000001, // useless relay
	})
	plan, err := PlanReplication(m, 0, 1, []trace.NodeID{2, 3, 4}, 200, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Satisfied {
		t.Fatalf("plan not satisfied: %+v", plan)
	}
	if len(plan.Relays) == 0 {
		t.Fatal("no relays selected despite weak direct path")
	}
	// The strongest relays (2, 3) must be used before the useless one.
	for _, r := range plan.Relays {
		if r == 4 {
			t.Fatalf("useless relay selected: %v", plan.Relays)
		}
	}
	if plan.AchievedProb < 0.9 {
		t.Fatalf("achieved = %v < 0.9", plan.AchievedProb)
	}
}

func TestPlanReplicationGreedyMinimal(t *testing.T) {
	// One strong relay is enough; the plan must stop there.
	m := ratesWith(5, map[[2]int]float64{
		{0, 2}: 1.0, {2, 1}: 1.0,
		{0, 3}: 0.01, {3, 1}: 0.01,
	})
	plan, err := PlanReplication(m, 0, 1, []trace.NodeID{2, 3}, 100, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Relays) != 1 || plan.Relays[0] != 2 {
		t.Fatalf("relays = %v, want [2]", plan.Relays)
	}
}

func TestPlanReplicationUnsatisfiable(t *testing.T) {
	// Nobody ever meets the destination.
	m := ratesWith(4, map[[2]int]float64{{0, 2}: 0.1, {0, 3}: 0.1})
	plan, err := PlanReplication(m, 0, 1, []trace.NodeID{2, 3}, 100, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Satisfied || plan.AchievedProb != 0 || len(plan.Relays) != 0 {
		t.Fatalf("plan = %+v, want empty unsatisfied", plan)
	}
}

func TestPlanReplicationMaxRelays(t *testing.T) {
	pairs := map[[2]int]float64{}
	cands := make([]trace.NodeID, 0, 8)
	for i := 2; i < 10; i++ {
		pairs[[2]int{0, i}] = 0.001
		pairs[[2]int{i, 1}] = 0.001
		cands = append(cands, trace.NodeID(i))
	}
	m := ratesWith(10, pairs)
	plan, err := PlanReplication(m, 0, 1, cands, 100, 0.999, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Relays) != 3 {
		t.Fatalf("relays = %v, want exactly 3 (cap)", plan.Relays)
	}
	if plan.Satisfied {
		t.Fatal("cannot be satisfied with capped weak relays")
	}
}

func TestPlanReplicationSkipsHolderAndDest(t *testing.T) {
	m := ratesWith(3, map[[2]int]float64{{0, 1}: 0.0001, {0, 2}: 1, {2, 1}: 1})
	plan, err := PlanReplication(m, 0, 1, []trace.NodeID{0, 1, 2}, 100, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range plan.Relays {
		if r == 0 || r == 1 {
			t.Fatalf("holder/dest selected as relay: %v", plan.Relays)
		}
	}
}

func TestPlanReplicationValidation(t *testing.T) {
	m := ratesWith(3, nil)
	if _, err := PlanReplication(m, 1, 1, nil, 100, 0.9, 0); err == nil {
		t.Fatal("holder==dest accepted")
	}
	if _, err := PlanReplication(m, 0, 1, nil, 0, 0.9, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := PlanReplication(m, 0, 1, nil, 100, 0, 0); err == nil {
		t.Fatal("zero pReq accepted")
	}
	if _, err := PlanReplication(m, 0, 1, nil, 100, 1.5, 0); err == nil {
		t.Fatal("pReq > 1 accepted")
	}
}

// Property: the analytical achieved probability is honest — Monte Carlo
// simulation of the direct + relay exponential paths agrees within
// sampling error.
func TestPlanAchievedProbMatchesMonteCarlo(t *testing.T) {
	rng := stats.NewRNG(31)
	m := ratesWith(6, map[[2]int]float64{
		{0, 1}: 0.002,
		{0, 2}: 0.01, {2, 1}: 0.008,
		{0, 3}: 0.004, {3, 1}: 0.02,
		{0, 4}: 0.03, {4, 1}: 0.001,
	})
	const budget, pReq = 300.0, 0.95
	plan, err := PlanReplication(m, 0, 1, []trace.NodeID{2, 3, 4, 5}, budget, pReq, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		ok := stats.Exp(rng, 0.002) <= budget
		for _, r := range plan.Relays {
			if ok {
				break
			}
			l1 := m.Rate(0, r)
			l2 := m.Rate(r, 1)
			if stats.Exp(rng, l1)+stats.Exp(rng, l2) <= budget {
				ok = true
			}
		}
		if ok {
			hits++
		}
	}
	mc := float64(hits) / n
	if math.Abs(mc-plan.AchievedProb) > 0.01 {
		t.Fatalf("analytical %v vs Monte Carlo %v", plan.AchievedProb, mc)
	}
}

// Property: achieved probability is monotone in the budget and never
// exceeds 1; relay count never exceeds the candidate count.
func TestPlanReplicationProperties(t *testing.T) {
	f := func(seed int64, b1, b2 float64) bool {
		rng := stats.NewRNG(seed)
		pairs := map[[2]int]float64{}
		for i := 1; i < 8; i++ {
			if rng.Float64() < 0.7 {
				pairs[[2]int{0, i}] = stats.Exp(rng, 100)
			}
			if i != 1 && rng.Float64() < 0.7 {
				pairs[[2]int{i, 1}] = stats.Exp(rng, 100)
			}
		}
		m := ratesWith(8, pairs)
		cands := []trace.NodeID{2, 3, 4, 5, 6, 7}
		b1 = 1 + math.Mod(math.Abs(b1), 1000)
		b2 = 1 + math.Mod(math.Abs(b2), 1000)
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		p1, err := PlanReplication(m, 0, 1, cands, b1, 0.99, 0)
		if err != nil {
			return false
		}
		p2, err := PlanReplication(m, 0, 1, cands, b2, 0.99, 0)
		if err != nil {
			return false
		}
		if p1.AchievedProb < 0 || p2.AchievedProb > 1 {
			return false
		}
		if len(p1.Relays) > len(cands) || len(p2.Relays) > len(cands) {
			return false
		}
		// A longer budget can only improve the best achievable probability
		// when both plans used every useful candidate; when plans stop early
		// at pReq both are >= ... so compare only the unsatisfied case.
		if !p1.Satisfied && !p2.Satisfied && p2.AchievedProb < p1.AchievedProb-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: raising p_req never lowers a plan's achieved probability.
// With the same rates, holder, destination, candidates, budget and relay
// bound, the plan at p2 ≥ p1 takes the relays of the plan at p1 and
// possibly more, and achieves at least as much, exactly: each added relay
// multiplies the miss probability by a factor in [0, 1], and IEEE
// rounding is monotone.
func TestPlanReplicationMonotoneInPReq(t *testing.T) {
	f := func(seed int64, q1, q2 uint16, bound uint8) bool {
		rng := stats.NewRNG(seed)
		const n = 10
		pairs := map[[2]int]float64{}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.6 {
					pairs[[2]int{a, b}] = stats.Exp(rng, 200)
				}
			}
		}
		m := ratesWith(n, pairs)
		holder := trace.NodeID(rng.Intn(n))
		dest := trace.NodeID((int(holder) + 1 + rng.Intn(n-1)) % n)
		var cands []trace.NodeID
		for _, c := range rng.Perm(n) {
			if c != int(holder) && c != int(dest) && rng.Float64() < 0.8 {
				cands = append(cands, trace.NodeID(c))
			}
		}
		budget := 1 + 1000*rng.Float64()
		maxRelays := int(bound % 5)
		// p in (0, 1], including 1 and values a hair apart.
		p1 := float64(uint32(q1)+1) / 65536
		p2 := float64(uint32(q2)+1) / 65536
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		lo, err := PlanReplication(m, holder, dest, cands, budget, p1, maxRelays)
		if err != nil {
			t.Log(err)
			return false
		}
		hi, err := PlanReplication(m, holder, dest, cands, budget, p2, maxRelays)
		if err != nil {
			t.Log(err)
			return false
		}
		if hi.AchievedProb < lo.AchievedProb {
			t.Logf("p_req %v → %v lowered AchievedProb %v → %v", p1, p2, lo.AchievedProb, hi.AchievedProb)
			return false
		}
		if len(lo.Relays) > len(hi.Relays) || !slices.Equal(lo.Relays, hi.Relays[:len(lo.Relays)]) {
			t.Logf("relays at p_req %v are %v, not a prefix of %v at %v", p1, lo.Relays, hi.Relays, p2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
