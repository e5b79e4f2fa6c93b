package trace

import (
	"cmp"
	"math"
	"slices"
)

// bucketSize is the mean number of contacts the second bucket pass leaves
// in a bucket for the comparison sort to finish.
const bucketSize = 8

// compareContacts orders contacts by (Start, A, B, End): the trace order
// Normalize establishes.
func compareContacts(x, y Contact) int {
	if c := cmp.Compare(x.Start, y.Start); c != 0 {
		return c
	}
	if x.A != y.A {
		return cmp.Compare(x.A, y.A)
	}
	if x.B != y.B {
		return cmp.Compare(x.B, y.B)
	}
	return cmp.Compare(x.End, y.End)
}

// sortContacts sorts cs by compareContacts in place. Two bucket passes on
// Start, each a permutation in place, leave only short runs for the
// comparison sort: about √(n/bucketSize) equal-width coarse buckets over
// the start range, then each coarse bucket split the same way over its own
// range into buckets of about bucketSize contacts. A bucket's index never
// decreases as Start grows and equal starts share a bucket, so the result
// is the one a comparison sort of the whole slice gives. The scratch is two
// bucket-bound arrays per pass, never a second copy of the contacts.
func sortContacts(cs []Contact) {
	nc := int(math.Sqrt(float64(len(cs) / bucketSize)))
	coarse := make([]int, 2*nc)
	ends := coarse[:nc]
	if nc < 2 || !distribute(cs, ends, coarse[nc:]) {
		slices.SortFunc(cs, compareContacts)
		return
	}
	widest, from := 0, 0
	for _, to := range ends {
		widest, from = max(widest, to-from), to
	}
	fine := make([]int, 2*(widest/bucketSize))
	from = 0
	for _, to := range ends {
		b := cs[from:to]
		from = to
		nf := len(b) / bucketSize
		if nf < 2 || !distribute(b, fine[:nf], fine[nf:2*nf]) {
			slices.SortFunc(b, compareContacts)
			continue
		}
		lo := 0
		for _, hi := range fine[:nf] {
			slices.SortFunc(b[lo:hi], compareContacts)
			lo = hi
		}
	}
}

// distribute permutes cs in place into len(ends) equal-width buckets over
// the range of its starts and leaves ends[k] at the end of bucket k; next
// is scratch of the same length. It reports false, with cs untouched, when
// no finite bucket scale exists: a start is NaN or infinite, all starts are
// equal, or they span so narrow a range that the scale overflows.
func distribute(cs []Contact, ends, next []int) bool {
	lo, hi := cs[0].Start, cs[0].Start
	for i := 1; i < len(cs); i++ {
		lo = min(lo, cs[i].Start)
		hi = max(hi, cs[i].Start)
	}
	nb := len(ends)
	scale := float64(nb) / (hi - lo)
	if !(scale > 0 && scale <= math.MaxFloat64) {
		return false
	}
	// Start−lo and the product round monotonically, so the index never
	// decreases as Start grows. The top of the range can round to nb; the
	// clamp keeps it in the last bucket.
	bucket := func(s float64) int { return min(int((s-lo)*scale), nb-1) }
	clear(ends)
	for i := range cs {
		ends[bucket(cs[i].Start)]++
	}
	sum := 0
	for k, n := range ends {
		next[k] = sum
		sum += n
		ends[k] = sum
	}
	// Cycle leader: carry the first unplaced contact of bucket k to its own
	// bucket's next free slot, pick up the contact found there, and repeat
	// until the carried contact belongs in k.
	for k, end := range ends {
		for i := next[k]; i < end; i = next[k] {
			c := cs[i]
			for d := bucket(c.Start); d != k; d = bucket(c.Start) {
				c, cs[next[d]] = cs[next[d]], c
				next[d]++
			}
			cs[i] = c
			next[k]++
		}
	}
	return true
}
