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
// indices uniformly (see sampleIndices, so the caller should keep p well
// below 1), in ascending order so that downstream rate draws consume the
// RNG in a deterministic pair order.
func samplePairIndices(rng *rand.Rand, total int64, p float64) []int64 {
	return sampleIndices(rng, total, stats.Binomial(rng, total, p), nil)
}

// sampleIndices returns k distinct indices drawn uniformly from
// [0, total) and accepted by accept (every index when accept is nil), in
// ascending order. It draws exactly what a rejection loop does, one index
// at a time until k distinct accepted indices are held: a round draws as
// many indices as are still missing, sorts the accepted ones into those
// already held and drops repeats. A round can complete the set only if
// each of its draws adds an index, so its last draw is the loop's last.
func sampleIndices(rng *rand.Rand, total, k int64, accept func(int64) bool) []int64 {
	idx := make([]int64, 0, k)
	var drawn []int64 // a later round's accepted draws, merged from the back
	for int64(len(idx)) < k {
		held := len(idx)
		for range k - int64(held) {
			if c := rng.Int63n(total); accept == nil || accept(c) {
				idx = append(idx, c)
			}
		}
		slices.Sort(idx[held:])
		if held > 0 {
			drawn = append(drawn[:0], idx[held:]...)
			i, j := held-1, len(drawn)-1
			for w := len(idx) - 1; j >= 0; w-- {
				if i >= 0 && idx[i] > drawn[j] {
					idx[w], i = idx[i], i-1
				} else {
					idx[w], j = drawn[j], j-1
				}
			}
		}
		idx = slices.Compact(idx)
	}
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

// positiveFinite reports whether x is a finite number > 0. NaN, which
// fails every comparison, fails it too.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

func (g *HeterogeneousExp) validate() error {
	switch {
	case g.N < 2:
		return fmt.Errorf("mobility: need at least 2 nodes, got %d", g.N)
	case !positiveFinite(g.Duration):
		return fmt.Errorf("mobility: duration %v is not a finite positive number", g.Duration)
	case !positiveFinite(g.MeanRate):
		return fmt.Errorf("mobility: mean rate %v is not a finite positive number", g.MeanRate)
	case !positiveFinite(g.RateShape):
		return fmt.Errorf("mobility: rate shape %v is not a finite positive number", g.RateShape)
	case !(g.PairFraction > 0 && g.PairFraction <= 1):
		return fmt.Errorf("mobility: pair fraction %v outside (0,1]", g.PairFraction)
	case !positiveFinite(g.MeanContactDur):
		return fmt.Errorf("mobility: contact duration %v is not a finite positive number", g.MeanContactDur)
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
	case !positiveFinite(g.Duration):
		return fmt.Errorf("mobility: duration %v is not a finite positive number", g.Duration)
	case g.Communities < 1 || g.Communities > g.N:
		return fmt.Errorf("mobility: %d communities for %d nodes", g.Communities, g.N)
	case !positiveFinite(g.IntraRate) || !(g.InterRate >= 0) || math.IsInf(g.InterRate, 1):
		return fmt.Errorf("mobility: bad rates intra=%v inter=%v", g.IntraRate, g.InterRate)
	case !positiveFinite(g.RateShape):
		return fmt.Errorf("mobility: rate shape %v is not a finite positive number", g.RateShape)
	case !(g.InterPairFraction >= 0 && g.InterPairFraction <= 1):
		return fmt.Errorf("mobility: inter pair fraction %v outside [0,1]", g.InterPairFraction)
	case !(g.HubFraction >= 0 && g.HubFraction <= 1):
		return fmt.Errorf("mobility: hub fraction %v outside [0,1]", g.HubFraction)
	case math.IsNaN(g.HubBoost) || math.IsInf(g.HubBoost, 0) || g.HubFraction > 0 && g.HubBoost < 1:
		return fmt.Errorf("mobility: hub boost %v is not finite, or below 1", g.HubBoost)
	case !positiveFinite(g.MeanContactDur):
		return fmt.Errorf("mobility: contact duration %v is not a finite positive number", g.MeanContactDur)
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

// generateSparse is the O(active pairs) community path. Intra-community
// pairs always meet, so there is nothing to sample for them; the active
// cross-community pairs are drawn by a binomial count plus uniform
// pair-index decoding, rejecting intra indices (sampleIndices). The pairs
// are then visited in ascending (a, b) order, which makes the trace a
// deterministic function of the seed: for each node a, a merge of its
// later community members with its row of the sorted cross-community
// indices. Each pair's rate and contacts are drawn when the merge reaches
// it.
func (g *Community) generateSparse(rng *rand.Rand, comm []int, boost []float64, t *trace.Trace) {
	members := make([][]int, g.Communities) // each community's nodes, ascending
	for i, c := range comm {
		members[c] = append(members[c], i)
	}
	var inter []int64
	if g.InterPairFraction > 0 && g.InterRate > 0 {
		var intra int64
		for _, m := range members {
			intra += int64(len(m)) * int64(len(m)-1) / 2
		}
		total := pairCount(g.N)
		if interTotal := total - intra; interTotal > 0 {
			k := stats.Binomial(rng, interTotal, g.InterPairFraction)
			inter = sampleIndices(rng, total, k, func(c int64) bool {
				a, b := pairFromIndex(c, g.N)
				return comm[a] != comm[b] // uniform over inter pairs: reject intra
			})
		}
	}

	pair := func(a, b int, mean float64) {
		rate := stats.Gamma(rng, g.RateShape, mean/g.RateShape)
		// Same hub semantics as the dense loop: geometric-mean boost.
		rate *= math.Sqrt(boost[a] * boost[b])
		pairProcess(rng, trace.NodeID(a), trace.NodeID(b), rate, g.MeanContactDur, g.Duration, &t.Contacts)
	}
	seen := make([]int, g.Communities) // members of each community visited so far
	n := int64(g.N)
	for a := 0; a < g.N; a++ {
		c := comm[a]
		seen[c]++
		later := members[c][seen[c]:]
		// Row a of the pair indices is [pairOffset(a), pairOffset(a+1)),
		// and its index x is the pair (a, x−base).
		base, rowEnd := pairOffset(int64(a), n)-int64(a)-1, pairOffset(int64(a+1), n)
		j := 0
		for j < len(inter) && inter[j] < rowEnd {
			j++
		}
		row := inter[:j]
		inter = inter[j:]
		for len(row) > 0 || len(later) > 0 {
			if len(later) == 0 || len(row) > 0 && int(row[0]-base) < later[0] {
				pair(a, int(row[0]-base), g.InterRate)
				row = row[1:]
			} else {
				pair(a, later[0], g.IntraRate)
				later = later[1:]
			}
		}
	}
}
