// Package bitset implements the small fixed-universe bit sets the
// simulation hot path runs on. Node IDs are dense integers in [0, N), so
// a destination set or relay set is a handful of 64-bit words instead of
// a Go map — no per-element allocation, no hash, and iteration is always
// in ascending element order, which is exactly the deterministic order
// the byte-identity guarantees of the experiment suite require.
package bitset

import "math/bits"

const wordBits = 64

// Set is a bit set over the universe [0, n) fixed at construction. The
// zero value is an empty set over an empty universe; create with New.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Add inserts i into the set. Out-of-universe indices panic, matching the
// slice-indexing semantics of the dense state the set replaces.
func (s *Set) Add(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set (a no-op when absent).
func (s *Set) Remove(i int) {
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is in the set. Negative or out-of-universe
// indices report false.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Len returns the number of elements (population count).
func (s *Set) Len() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Or adds every element of t to s. The universes must match in word
// count; s keeps its own universe size.
func (s *Set) Or(t *Set) {
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// IntersectInto sets dst = s ∩ t and returns dst's new length. All three
// sets must share a universe. Using a caller-owned scratch set keeps the
// per-contact relay hand-off path allocation-free.
func (s *Set) IntersectInto(t, dst *Set) int {
	total := 0
	for i := range dst.words {
		w := s.words[i] & t.words[i]
		dst.words[i] = w
		total += bits.OnesCount64(w)
	}
	return total
}

// Next returns the smallest element >= from, or -1 when none exists. It
// enables allocation-free ascending iteration that observes concurrent
// mutation: for i := s.Next(0); i >= 0; i = s.Next(i + 1) { ... }.
func (s *Set) Next(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return -1
	}
	wi := from / wordBits
	w := s.words[wi] >> (uint(from) % wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}
