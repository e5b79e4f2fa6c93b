package trace

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

const (
	// bucketSize is the mean number of contacts a leaf's bucket pass leaves
	// in a bucket for the insertion sort to finish.
	bucketSize = 8
	// fanout is the number of buckets a pass above the leaves spreads a
	// range over. Each bucket keeps a next free slot that every step of the
	// permutation writes through; 64 of them stay in the first-level cache
	// however large the range.
	fanout = 64
	// leafMax is the most contacts a leaf holds: 1 MiB, which stays in a
	// core's second-level cache while its one bucket pass spreads it over
	// leafMax/bucketSize buckets. It is also the smallest range with a
	// first level to split across workers.
	leafMax = 1 << 15
	// maxDepth bounds the passes above the leaves. Starts that spread
	// evenly need one pass for every factor of fanout above leafMax; starts
	// packed ever closer (1, ½, ¼, …) could leave one bucket nearly whole
	// at every pass, and past the bound a comparison sort finishes it.
	maxDepth = 8
)

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

// sortContacts sorts cs by compareContacts in place. Passes above the
// leaves permute a range in place into fanout equal-width buckets on
// Start, until each bucket is a leaf of at most leafMax contacts; a leaf
// gets one more such pass into buckets of about bucketSize contacts, and
// an insertion sort finishes each of those. A bucket's index never
// decreases as Start grows and equal starts share a bucket, so the result
// is the one a comparison sort of the whole slice gives. The scratch is
// two bucket-bound arrays per pass, never a second copy of the contacts.
//
// The first pass's buckets hold disjoint contacts, so they are sorted on
// min(GOMAXPROCS, fanout) goroutines, the caller among them. Each
// bucket's order is fixed by its contacts alone, so the result does not
// depend on which worker sorts which bucket.
func sortContacts(cs []Contact) {
	var s sorter
	s.sort(cs, maxDepth, min(runtime.GOMAXPROCS(0), fanout))
}

// sorter sorts ranges of contacts on one goroutine. fine is its leaves'
// bucket-bound scratch, kept from leaf to leaf.
type sorter struct{ fine []int }

// sort sorts cs by compareContacts in place with at most depth passes
// above the leaves. With more than one worker, the buckets of its first
// pass are sorted on that many goroutines.
func (s *sorter) sort(cs []Contact, depth, workers int) {
	if len(cs) <= leafMax {
		s.leaf(cs)
		return
	}
	var ends, next [fanout]int
	if depth == 0 || !distribute(cs, ends[:], next[:]) {
		slices.SortFunc(cs, compareContacts)
		return
	}
	if workers > 1 {
		sortBuckets(cs, ends[:], depth-1, workers)
		return
	}
	s.reserve(widest(ends[:]))
	from := 0
	for _, to := range ends {
		s.sort(cs[from:to], depth-1, 1)
		from = to
	}
}

// sortBuckets sorts the buckets of cs that end at ends on workers
// goroutines, the caller among them. Each worker claims the next unsorted
// bucket until none is left.
func sortBuckets(cs []Contact, ends []int, depth, workers int) {
	bounds := slices.Clone(ends) // the workers' copy, so the caller's stays on its stack
	var claimed atomic.Int64
	work := func() {
		var s sorter
		s.reserve(widest(bounds))
		for k := claimed.Add(1) - 1; k < int64(len(bounds)); k = claimed.Add(1) - 1 {
			from := 0
			if k > 0 {
				from = bounds[k-1]
			}
			s.sort(cs[from:bounds[k]], depth, 1)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// widest returns the length of the longest bucket that ends at ends.
func widest(ends []int) int {
	w, from := 0, 0
	for _, to := range ends {
		w, from = max(w, to-from), to
	}
	return w
}

// reserve makes room in fine for the bucket pass of a leaf of up to n
// contacts.
func (s *sorter) reserve(n int) {
	if nb := min(n, leafMax) / bucketSize; cap(s.fine) < 2*nb {
		s.fine = make([]int, 2*nb)
	}
}

// leaf sorts a leaf: one bucket pass into buckets of about bucketSize
// contacts, then each bucket on its own.
func (s *sorter) leaf(cs []Contact) {
	nb := len(cs) / bucketSize
	if nb < 2 {
		finish(cs)
		return
	}
	s.reserve(len(cs))
	ends, next := s.fine[:nb], s.fine[nb:2*nb]
	if !distribute(cs, ends, next) {
		finish(cs)
		return
	}
	from := 0
	for _, to := range ends {
		finish(cs[from:to])
		from = to
	}
}

// finish sorts one of a leaf's buckets. A bucket that the pass left long,
// because the leaf's starts cluster, goes to the comparison sort, as
// insertion's cost grows with the square of the run.
func finish(cs []Contact) {
	if len(cs) > 4*bucketSize {
		slices.SortFunc(cs, compareContacts)
		return
	}
	insertionSort(cs)
}

// insertionSort sorts cs by compareContacts. The starts are compared
// inline; only a tie, or a NaN start, which fails both comparisons, goes
// to compareContacts.
func insertionSort(cs []Contact) {
	for i := 1; i < len(cs); i++ {
		c, j := cs[i], i
		for ; j > 0; j-- {
			p := &cs[j-1]
			if !(c.Start < p.Start) && (c.Start > p.Start || compareContacts(c, *p) >= 0) {
				break
			}
			cs[j] = *p
		}
		cs[j] = c
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
