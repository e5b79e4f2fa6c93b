// Package mobility generates synthetic contact traces. It provides the
// two calibrated presets that stand in for the proprietary real traces the
// paper evaluates on (MIT Reality, Haggle Infocom'06 — see DESIGN.md,
// "Substitutions"), plus the general-purpose generators they are built
// from: a heterogeneous-exponential pairwise model and a community model
// with hub nodes.
//
// All generators consume an explicit seed and are fully deterministic.
package mobility

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

// sparsePairThreshold is the node count at which the pairwise generators
// switch from the N² Bernoulli pair loop to O(active pairs) sampling:
// a binomial draw of the active-pair count plus uniform pair-index
// decoding. The two procedures are distributionally identical (a
// sequence of P independent Bernoulli(p) trials conditions to a
// Binomial(P, p) count with the successes uniform without replacement),
// but they consume the RNG differently, so the legacy loop is kept
// verbatim below the threshold to preserve the byte-exact traces of
// every calibrated preset.
const sparsePairThreshold = 1024

// pairCount returns the number of unordered node pairs C(n,2).
func pairCount(n int) int64 {
	return int64(n) * int64(n-1) / 2
}

// pairOffset returns the index of pair (a, a+1) in the row-major
// upper-triangle enumeration (0,1),(0,2),…,(1,2),… of n nodes.
func pairOffset(a, n int64) int64 {
	return a * (2*n - a - 1) / 2
}

// pairFromIndex decodes a row-major upper-triangle pair index into its
// (a, b) node pair, a < b. The row is estimated by solving the quadratic
// offset equation in floats and fixed up exactly.
func pairFromIndex(k int64, n int) (int, int) {
	nn := int64(n)
	est := (float64(2*nn-1) - math.Sqrt(float64((2*nn-1)*(2*nn-1)-8*k))) / 2
	a := int64(est)
	if a < 0 {
		a = 0
	}
	if a > nn-2 {
		a = nn - 2
	}
	for a > 0 && pairOffset(a, nn) > k {
		a--
	}
	for a < nn-2 && pairOffset(a+1, nn) <= k {
		a++
	}
	b := a + 1 + (k - pairOffset(a, nn))
	return int(a), int(b)
}

// samplePairIndices draws a binomial count of active pairs out of total
// with the given per-pair probability, then picks that many distinct pair
// indices uniformly (rejection-sampled, so the caller should keep p well
// below 1). The result is sorted ascending so downstream rate draws
// consume the RNG in a deterministic pair order.
func samplePairIndices(rng *rand.Rand, total int64, p float64) []int64 {
	k := stats.Binomial(rng, total, p)
	chosen := make(map[int64]struct{}, k)
	idx := make([]int64, 0, k)
	for int64(len(idx)) < k {
		c := rng.Int63n(total)
		if _, dup := chosen[c]; dup {
			continue
		}
		chosen[c] = struct{}{}
		idx = append(idx, c)
	}
	slices.Sort(idx)
	return idx
}

// Generator produces a contact trace from a seed.
type Generator interface {
	// Name identifies the generator configuration in reports.
	Name() string
	// Generate builds the trace. Implementations must return a normalized,
	// Validate-clean trace.
	Generate(seed int64) (*trace.Trace, error)
}

// pairProcess emits a Poisson contact process for one pair: contacts with
// exponential inter-contact times at the given rate and exponential
// durations with the given mean, clipped to the trace duration.
func pairProcess(rng *rand.Rand, a, b trace.NodeID, rate, meanDur, duration float64, out *[]trace.Contact) {
	if rate <= 0 {
		return
	}
	// Random phase: first contact is a full exponential gap from a
	// uniformly random origin so the process is stationary from t=0.
	t := stats.Exp(rng, rate) * rng.Float64()
	for t < duration {
		d := stats.Exp(rng, 1/meanDur)
		if d < 1 {
			d = 1 // contacts shorter than a second are unusable and unrealistic
		}
		end := t + d
		if end > duration {
			end = duration
		}
		if end > t {
			*out = append(*out, trace.Contact{A: a, B: b, Start: t, End: end})
		}
		t += stats.Exp(rng, rate)
		if t < end {
			t = end // contacts of one pair cannot overlap
		}
	}
}

// hintSlack is the room a generator's contact slice gets above its
// expected count. Pair rates are gamma-distributed, so a preset's count
// spreads by about 5% across seeds; 15% rarely regrows the slice.
const hintSlack = 1.15

// expectedContacts bounds the expected number of contacts pairProcess
// emits for the given number of meeting pairs, whose rates sum to
// rateSum. Each pair expects its rate times the duration in contacts,
// plus at most one half for the random phase of its first contact; and no
// pair expects more than one contact beyond those that fit end to end at
// the mean contact duration, as one pair's contacts cannot overlap.
func expectedContacts(pairs, rateSum, meanDur, duration float64) float64 {
	return min(rateSum*duration+pairs/2, pairs*(duration/meanDur+1))
}

// presized returns an empty contact slice with room for expected contacts
// and hintSlack more, so that generating fills it without regrowing. An
// absurd estimate, one not below 1<<24 contacts or NaN, gets no room: the
// slice then grows as contacts come.
func presized(expected float64) []trace.Contact {
	if n := expected * hintSlack; n < 1<<24 {
		return make([]trace.Contact, 0, int(n)+1)
	}
	return nil
}

// HeterogeneousExp is the baseline analytical model of this paper family:
// every pair (i,j) meets as a Poisson process with its own rate λij, with
// the rates drawn from a gamma distribution to produce the heavy
// heterogeneity observed in real traces.
type HeterogeneousExp struct {
	TraceName string
	N         int
	Duration  float64 // seconds
	// MeanRate is the mean pairwise contact rate of meeting pairs (1/s).
	MeanRate float64
	// RateShape is the gamma shape for rate heterogeneity; smaller values
	// give more skew. Typical real-trace fits are well below 1.
	RateShape float64
	// PairFraction is the fraction of pairs that ever meet.
	PairFraction float64
	// MeanContactDur is the mean contact duration in seconds.
	MeanContactDur float64
}

// Name implements Generator.
func (g *HeterogeneousExp) Name() string { return g.TraceName }

func (g *HeterogeneousExp) validate() error {
	switch {
	case g.N < 2:
		return fmt.Errorf("mobility: need at least 2 nodes, got %d", g.N)
	case g.Duration <= 0:
		return fmt.Errorf("mobility: non-positive duration %v", g.Duration)
	case g.MeanRate <= 0:
		return fmt.Errorf("mobility: non-positive mean rate %v", g.MeanRate)
	case g.RateShape <= 0:
		return fmt.Errorf("mobility: non-positive rate shape %v", g.RateShape)
	case g.PairFraction <= 0 || g.PairFraction > 1:
		return fmt.Errorf("mobility: pair fraction %v outside (0,1]", g.PairFraction)
	case g.MeanContactDur <= 0:
		return fmt.Errorf("mobility: non-positive contact duration %v", g.MeanContactDur)
	}
	return nil
}

// Generate implements Generator.
func (g *HeterogeneousExp) Generate(seed int64) (*trace.Trace, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	rng := stats.Derive(seed, "mobility/hetexp/"+g.TraceName)
	t := &trace.Trace{Name: g.TraceName, N: g.N, Duration: g.Duration, Contacts: presized(g.expectedContacts())}
	scale := g.MeanRate / g.RateShape
	if g.N >= sparsePairThreshold && g.PairFraction <= 0.5 {
		// O(active pairs): draw how many pairs meet, then which ones —
		// distributionally identical to the Bernoulli loop below without
		// touching the (1−p)·N² never-meeting pairs.
		for _, c := range samplePairIndices(rng, pairCount(g.N), g.PairFraction) {
			a, b := pairFromIndex(c, g.N)
			rate := stats.Gamma(rng, g.RateShape, scale)
			pairProcess(rng, trace.NodeID(a), trace.NodeID(b), rate, g.MeanContactDur, g.Duration, &t.Contacts)
		}
	} else {
		for a := 0; a < g.N; a++ {
			for b := a + 1; b < g.N; b++ {
				if rng.Float64() >= g.PairFraction {
					continue
				}
				rate := stats.Gamma(rng, g.RateShape, scale)
				pairProcess(rng, trace.NodeID(a), trace.NodeID(b), rate, g.MeanContactDur, g.Duration, &t.Contacts)
			}
		}
	}
	t.Normalize()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("mobility: generated invalid trace: %w", err)
	}
	return t, nil
}

// expectedContacts is the expected contact count of a trace: the meeting
// pairs' mean rates summed, each pair meeting with probability
// PairFraction at a mean rate of MeanRate.
func (g *HeterogeneousExp) expectedContacts() float64 {
	pairs := float64(pairCount(g.N)) * g.PairFraction
	return expectedContacts(pairs, pairs*g.MeanRate, g.MeanContactDur, g.Duration)
}

// Community models nodes grouped into communities with frequent
// intra-community contacts, rare inter-community contacts, and a fraction
// of socially active "hub" nodes whose rates are boosted — the structure
// that makes contact-based centrality (and hence NCL selection)
// meaningful.
type Community struct {
	TraceName   string
	N           int
	Duration    float64
	Communities int
	// IntraRate / InterRate are the mean contact rates for same-community
	// and cross-community pairs (1/s); both are heterogenized with
	// RateShape.
	IntraRate float64
	InterRate float64
	RateShape float64
	// InterPairFraction is the fraction of cross-community pairs that ever
	// meet (intra-community pairs always meet).
	InterPairFraction float64
	// HubFraction of nodes get HubBoost multiplied into all their rates.
	HubFraction float64
	HubBoost    float64
	// MeanContactDur is the mean contact duration in seconds.
	MeanContactDur float64
}

// Name implements Generator.
func (g *Community) Name() string { return g.TraceName }

func (g *Community) validate() error {
	switch {
	case g.N < 2:
		return fmt.Errorf("mobility: need at least 2 nodes, got %d", g.N)
	case g.Duration <= 0:
		return fmt.Errorf("mobility: non-positive duration %v", g.Duration)
	case g.Communities < 1 || g.Communities > g.N:
		return fmt.Errorf("mobility: %d communities for %d nodes", g.Communities, g.N)
	case g.IntraRate <= 0 || g.InterRate < 0:
		return fmt.Errorf("mobility: bad rates intra=%v inter=%v", g.IntraRate, g.InterRate)
	case g.RateShape <= 0:
		return fmt.Errorf("mobility: non-positive rate shape %v", g.RateShape)
	case g.InterPairFraction < 0 || g.InterPairFraction > 1:
		return fmt.Errorf("mobility: inter pair fraction %v outside [0,1]", g.InterPairFraction)
	case g.HubFraction < 0 || g.HubFraction > 1:
		return fmt.Errorf("mobility: hub fraction %v outside [0,1]", g.HubFraction)
	case g.HubFraction > 0 && g.HubBoost < 1:
		return fmt.Errorf("mobility: hub boost %v below 1", g.HubBoost)
	case g.MeanContactDur <= 0:
		return fmt.Errorf("mobility: non-positive contact duration %v", g.MeanContactDur)
	}
	return nil
}

// Generate implements Generator.
func (g *Community) Generate(seed int64) (*trace.Trace, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	rng, comm, boost := g.nodes(seed)
	t := &trace.Trace{Name: g.TraceName, N: g.N, Duration: g.Duration, Contacts: presized(g.expectedContacts(comm, boost))}
	if g.N >= sparsePairThreshold && g.InterPairFraction <= 0.5 {
		g.generateSparse(rng, comm, boost, t)
	} else {
		for a := 0; a < g.N; a++ {
			for b := a + 1; b < g.N; b++ {
				var mean float64
				if comm[a] == comm[b] {
					mean = g.IntraRate
				} else {
					if rng.Float64() >= g.InterPairFraction {
						continue
					}
					mean = g.InterRate
				}
				if mean <= 0 {
					continue
				}
				rate := stats.Gamma(rng, g.RateShape, mean/g.RateShape)
				// A pair meets more often when either endpoint is a hub; the
				// geometric mean keeps a hub-hub pair at a single full boost.
				rate *= math.Sqrt(boost[a] * boost[b])
				pairProcess(rng, trace.NodeID(a), trace.NodeID(b), rate, g.MeanContactDur, g.Duration, &t.Contacts)
			}
		}
	}
	t.Normalize()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("mobility: generated invalid trace: %w", err)
	}
	return t, nil
}

// nodes derives the generator's RNG from seed and makes Generate's first
// draws with it: each node's community and hub boost.
func (g *Community) nodes(seed int64) (rng *rand.Rand, comm []int, boost []float64) {
	rng = stats.Derive(seed, "mobility/community/"+g.TraceName)
	comm = make([]int, g.N)
	for i := range comm {
		comm[i] = i % g.Communities
	}
	// Shuffle community assignment so node IDs carry no structure.
	rng.Shuffle(g.N, func(i, j int) { comm[i], comm[j] = comm[j], comm[i] })

	boost = make([]float64, g.N)
	for i := range boost {
		boost[i] = 1
		if rng.Float64() < g.HubFraction {
			boost[i] = g.HubBoost
		}
	}
	return rng, comm, boost
}

// expectedContacts is the expected contact count of a trace whose nodes
// have the given communities and hub boosts. A pair's mean rate is its
// class's rate times √(boost_a·boost_b) = r_a·r_b, and over the pairs of
// a set of nodes these products sum to ((Σr)² − Σr²)/2. Intra-community
// pairs all meet; cross-community pairs meet with probability
// InterPairFraction.
func (g *Community) expectedContacts(comm []int, boost []float64) float64 {
	type tally struct{ nodes, r, r2 float64 } // node count, Σr and Σr²
	pairBoost := func(t tally) float64 { return (t.r*t.r - t.r2) / 2 }
	var all tally
	comms := make([]tally, g.Communities)
	for i, c := range comm {
		r := math.Sqrt(boost[i])
		comms[c].nodes++
		comms[c].r += r
		comms[c].r2 += r * r
		all.r += r
		all.r2 += r * r
	}
	var intraPairs, intraBoost float64
	for _, c := range comms {
		intraPairs += c.nodes * (c.nodes - 1) / 2
		intraBoost += pairBoost(c)
	}
	pairs, rates := intraPairs, g.IntraRate*intraBoost
	if g.InterRate > 0 {
		pairs += g.InterPairFraction * (float64(pairCount(g.N)) - intraPairs)
		rates += g.InterPairFraction * g.InterRate * (pairBoost(all) - intraBoost)
	}
	return expectedContacts(pairs, rates, g.MeanContactDur, g.Duration)
}

// generateSparse is the O(active pairs) community path: every
// intra-community pair is enumerated block by block (intra pairs always
// meet, so there is nothing to sample), and the active cross-community
// pairs are drawn by a binomial count plus uniform pair-index decoding,
// rejecting intra and duplicate indices. The merged active-pair list is
// processed in ascending (a, b) order so the trace is a deterministic
// function of the seed.
func (g *Community) generateSparse(rng *rand.Rand, comm []int, boost []float64, t *trace.Trace) {
	type activePair struct {
		a, b int
		mean float64
	}
	var pairs []activePair

	if g.IntraRate > 0 {
		members := make([][]int, g.Communities)
		for i, c := range comm {
			members[c] = append(members[c], i)
		}
		for _, m := range members {
			for i := 0; i < len(m); i++ {
				for j := i + 1; j < len(m); j++ {
					a, b := m[i], m[j]
					if a > b {
						a, b = b, a
					}
					pairs = append(pairs, activePair{a: a, b: b, mean: g.IntraRate})
				}
			}
		}
	}

	if g.InterPairFraction > 0 && g.InterRate > 0 {
		var intra int64
		sizes := make([]int64, g.Communities)
		for _, c := range comm {
			sizes[c]++
		}
		for _, s := range sizes {
			intra += s * (s - 1) / 2
		}
		total := pairCount(g.N)
		interTotal := total - intra
		if interTotal > 0 {
			k := stats.Binomial(rng, interTotal, g.InterPairFraction)
			chosen := make(map[int64]struct{}, k)
			idx := make([]int64, 0, k)
			for int64(len(idx)) < k {
				c := rng.Int63n(total)
				a, b := pairFromIndex(c, g.N)
				if comm[a] == comm[b] {
					continue // uniform over inter pairs: reject intra
				}
				if _, dup := chosen[c]; dup {
					continue
				}
				chosen[c] = struct{}{}
				idx = append(idx, c)
			}
			slices.Sort(idx)
			for _, c := range idx {
				a, b := pairFromIndex(c, g.N)
				pairs = append(pairs, activePair{a: a, b: b, mean: g.InterRate})
			}
		}
	}

	slices.SortFunc(pairs, func(x, y activePair) int {
		return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
	})
	for _, p := range pairs {
		rate := stats.Gamma(rng, g.RateShape, p.mean/g.RateShape)
		// Same hub semantics as the dense loop: geometric-mean boost.
		rate *= math.Sqrt(boost[p.a] * boost[p.b])
		pairProcess(rng, trace.NodeID(p.a), trace.NodeID(p.b), rate, g.MeanContactDur, g.Duration, &t.Contacts)
	}
}
