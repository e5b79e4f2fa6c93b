// Package trace defines the contact-trace model that drives every
// simulation: a time-ordered sequence of pairwise contact intervals
// between mobile nodes, plus readers and writers for the on-disk format
// and the aggregate statistics the evaluation reports.
//
// A trace is the only coupling between mobility (real or synthetic) and
// the protocol layers: protocols see contacts, never positions.
package trace

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a node within a trace. IDs are dense in [0, N).
type NodeID int

// Contact is one pairwise contact interval: nodes A and B can exchange
// data during [Start, End). A < B by convention (see Normalize).
type Contact struct {
	A, B       NodeID
	Start, End float64
}

// Duration returns the contact duration in seconds.
func (c Contact) Duration() float64 { return c.End - c.Start }

// Trace is a complete contact trace: N nodes observed over [0, Duration),
// with contacts sorted by start time (ties broken by (A,B) to keep runs
// deterministic).
type Trace struct {
	Name     string
	N        int
	Duration float64
	Contacts []Contact
}

// Validation errors.
var (
	ErrNoNodes        = errors.New("trace: no nodes")
	ErrBadDuration    = errors.New("trace: invalid duration")
	ErrBadContact     = errors.New("trace: invalid contact")
	ErrUnsorted       = errors.New("trace: contacts not sorted by start time")
	ErrBeyondDuration = errors.New("trace: contact beyond trace duration")
)

// Validate checks the structural invariants documented on Trace, and that
// every time is a finite number. It does not modify the trace; call
// Normalize first on freshly built traces.
func (t *Trace) Validate() error {
	if t.N <= 0 {
		return ErrNoNodes
	}
	// Each range test is written so that NaN, which fails every
	// comparison, fails it too. A finite duration bounds every end, and
	// every end bounds its start, so all times are then finite.
	if !(t.Duration > 0 && t.Duration <= math.MaxFloat64) {
		return fmt.Errorf("%w %v", ErrBadDuration, t.Duration)
	}
	prev := -1.0
	for i, c := range t.Contacts {
		switch {
		case c.A == c.B:
			return fmt.Errorf("%w #%d: self-contact %d", ErrBadContact, i, c.A)
		case c.A < 0 || int(c.A) >= t.N || c.B < 0 || int(c.B) >= t.N:
			return fmt.Errorf("%w #%d: node out of range (%d,%d) with N=%d", ErrBadContact, i, c.A, c.B, t.N)
		case c.A > c.B:
			return fmt.Errorf("%w #%d: not normalized (A=%d > B=%d)", ErrBadContact, i, c.A, c.B)
		case !(c.Start >= 0 && c.End > c.Start):
			return fmt.Errorf("%w #%d: interval [%v,%v)", ErrBadContact, i, c.Start, c.End)
		case c.Start < prev:
			return fmt.Errorf("%w: contact #%d starts at %v after %v", ErrUnsorted, i, c.Start, prev)
		case !(c.End <= t.Duration):
			return fmt.Errorf("%w: contact #%d ends at %v > %v", ErrBeyondDuration, i, c.End, t.Duration)
		}
		prev = c.Start
	}
	return nil
}

// Normalize orders each contact's endpoints (A < B) and sorts contacts by
// (Start, A, B, End) in place (see sortContacts). Generators call this
// before returning a trace.
func (t *Trace) Normalize() {
	for i := range t.Contacts {
		if t.Contacts[i].A > t.Contacts[i].B {
			t.Contacts[i].A, t.Contacts[i].B = t.Contacts[i].B, t.Contacts[i].A
		}
	}
	sortContacts(t.Contacts)
}

// Slice returns a copy of the trace restricted to contacts that start in
// [from, to), with times preserved (not re-based). Used to split traces
// into warmup and measurement halves.
func (t *Trace) Slice(from, to float64) *Trace {
	out := &Trace{Name: t.Name, N: t.N, Duration: t.Duration}
	for _, c := range t.Contacts {
		if c.Start >= from && c.Start < to {
			out.Contacts = append(out.Contacts, c)
		}
	}
	return out
}

// PairKey maps an unordered node pair to a dense index for rate matrices:
// the pair (a,b), a<b, among N nodes.
func PairKey(a, b NodeID, n int) int {
	if a > b {
		a, b = b, a
	}
	return int(a)*n + int(b)
}

// Stats holds the aggregate statistics reported in the trace-summary
// table (experiment E1).
type Stats struct {
	Name            string
	Nodes           int
	DurationHours   float64
	Contacts        int
	ContactsPerPair float64 // mean contacts per distinct meeting pair
	MeetingPairs    int     // pairs that met at least once
	PairCoverage    float64 // fraction of all pairs that ever met
	MeanPairRate    float64 // mean contact rate over meeting pairs (1/s)
	MeanContactDur  float64 // mean contact duration (s)
}

// ComputeStats derives the aggregate statistics of the trace.
func (t *Trace) ComputeStats() Stats {
	counts := make(map[int]int)
	var totalDur float64
	for _, c := range t.Contacts {
		counts[PairKey(c.A, c.B, t.N)]++
		totalDur += c.Duration()
	}
	s := Stats{
		Name:          t.Name,
		Nodes:         t.N,
		DurationHours: t.Duration / 3600,
		Contacts:      len(t.Contacts),
		MeetingPairs:  len(counts),
	}
	allPairs := t.N * (t.N - 1) / 2
	if allPairs > 0 {
		s.PairCoverage = float64(len(counts)) / float64(allPairs)
	}
	if len(counts) > 0 {
		// Summed in ascending pair order: a float sum in map order can
		// differ in its last bits from one call to the next.
		var sum int
		var rateSum float64
		for _, key := range sortedKeys(counts) {
			c := counts[key]
			sum += c
			rateSum += float64(c) / t.Duration
		}
		s.ContactsPerPair = float64(sum) / float64(len(counts))
		s.MeanPairRate = rateSum / float64(len(counts))
	}
	if len(t.Contacts) > 0 {
		s.MeanContactDur = totalDur / float64(len(t.Contacts))
	}
	return s
}

// PairRates returns the empirical contact-rate matrix: rates[PairKey(a,b,N)]
// is the number of (a,b) contacts divided by the observation window
// [from, to). This is the "oracle" estimator used when protocols are
// granted converged rate knowledge; the online estimator lives in package
// centrality.
func (t *Trace) PairRates(from, to float64) ([]float64, error) {
	if to <= from {
		return nil, fmt.Errorf("trace: empty rate window [%v,%v)", from, to)
	}
	rates := make([]float64, t.N*t.N)
	for _, c := range t.Contacts {
		if c.Start >= from && c.Start < to {
			rates[PairKey(c.A, c.B, t.N)]++
		}
	}
	w := to - from
	for i := range rates {
		rates[i] /= w
	}
	return rates, nil
}

// InterContactTimes returns, for each meeting pair, the sequence of
// inter-contact gaps (start-to-start). Used to characterize traces and to
// sanity-check generators against their target distributions.
func (t *Trace) InterContactTimes() map[int][]float64 {
	last := make(map[int]float64)
	gaps := make(map[int][]float64)
	for _, c := range t.Contacts {
		k := PairKey(c.A, c.B, t.N)
		if prev, ok := last[k]; ok {
			gaps[k] = append(gaps[k], c.Start-prev)
		}
		last[k] = c.Start
	}
	return gaps
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// InterContactGaps returns every meeting pair's inter-contact gaps in one
// slice, pairs in ascending PairKey order and each pair's gaps in time
// order, so a sum over it is the same on every call.
func (t *Trace) InterContactGaps() []float64 {
	byPair := t.InterContactTimes()
	var gaps []float64
	for _, k := range sortedKeys(byPair) {
		gaps = append(gaps, byPair[k]...)
	}
	return gaps
}
