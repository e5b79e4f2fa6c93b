package trace

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// comparisonSort is the reference order: endpoints swapped to A ≤ B, then
// one comparison sort of the whole slice on (Start, A, B, End).
func comparisonSort(in []Contact) []Contact {
	want := slices.Clone(in)
	for i, c := range want {
		if c.A > c.B {
			want[i].A, want[i].B = c.B, c.A
		}
	}
	slices.SortFunc(want, func(x, y Contact) int {
		return cmp.Or(cmp.Compare(x.Start, y.Start), cmp.Compare(x.A, y.A),
			cmp.Compare(x.B, y.B), cmp.Compare(x.End, y.End))
	})
	return want
}

// normalized returns Normalize's order of a copy of in.
func normalized(in []Contact) []Contact {
	tr := &Trace{Contacts: slices.Clone(in)}
	tr.Normalize()
	return tr.Contacts
}

// sameOrder reports how got differs from want, the reference order of the
// same input, or "" if it does not. Position by position the four keys
// must compare equal; contacts that differ only in the sign of a zero may
// trade places, since no comparison sort tells them apart. got must also
// hold exactly want's contacts, bit for bit.
func sameOrder(got, want []Contact) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d contacts, want %d", len(got), len(want))
	}
	for i := range got {
		x, y := got[i], want[i]
		if x.A != y.A || x.B != y.B || cmp.Compare(x.Start, y.Start) != 0 || cmp.Compare(x.End, y.End) != 0 {
			return fmt.Sprintf("#%d = %+v, want %+v", i, x, y)
		}
	}
	type bits [4]uint64
	count := make(map[bits]int, len(got))
	for _, c := range got {
		count[bits{uint64(c.A), uint64(c.B), math.Float64bits(c.Start), math.Float64bits(c.End)}]++
	}
	for _, c := range want {
		count[bits{uint64(c.A), uint64(c.B), math.Float64bits(c.Start), math.Float64bits(c.End)}]--
	}
	for k, n := range count {
		if n != 0 {
			return fmt.Sprintf("contact %v appears %+d times more than in the input", k, n)
		}
	}
	return ""
}

// orderShapes are the inputs Normalize must order as the comparison sort
// does, each built for n contacts.
var orderShapes = []struct {
	name  string
	build func(rng *rand.Rand, n int) []Contact
}{
	{"per-pair time-sorted runs", perPairRuns},
	{"uniform starts", func(rng *rand.Rand, n int) []Contact {
		return contacts(rng, n, func(int) float64 { return rng.Float64() * 1e6 })
	}},
	{"many equal starts", func(rng *rand.Rand, n int) []Contact {
		return contacts(rng, n, func(int) float64 { return float64(rng.Intn(5)) * 3600 })
	}},
	{"all starts equal", func(rng *rand.Rand, n int) []Contact {
		return contacts(rng, n, func(int) float64 { return 42 })
	}},
	{"one start at 1e308", func(rng *rand.Rand, n int) []Contact {
		return contacts(rng, n, func(i int) float64 {
			if i == n/2 {
				return 1e308
			}
			return rng.Float64() * 100
		})
	}},
	{"negative starts", func(rng *rand.Rand, n int) []Contact {
		return contacts(rng, n, func(int) float64 { return (rng.Float64() - 0.7) * 1e4 })
	}},
	{"-0 and +0 starts", func(rng *rand.Rand, n int) []Contact {
		return contacts(rng, n, func(int) float64 {
			switch rng.Intn(3) {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			}
			return rng.Float64()*2 - 1
		})
	}},
	{"starts 0 and 5e-324", func(rng *rand.Rand, n int) []Contact {
		return contacts(rng, n, func(int) float64 { return float64(rng.Intn(2)) * 5e-324 })
	}},
	{"infinite starts", func(rng *rand.Rand, n int) []Contact {
		return contacts(rng, n, func(i int) float64 {
			if i%7 == 3 {
				return math.Inf(1 - 2*(i%2))
			}
			return rng.Float64() * 100
		})
	}},
}

// contacts draws n contacts with starts from start(i), random endpoints
// in either order, and ends a little after their starts.
func contacts(rng *rand.Rand, n int, start func(i int) float64) []Contact {
	out := make([]Contact, n)
	for i := range out {
		a := NodeID(rng.Intn(16))
		b := (a + 1 + NodeID(rng.Intn(15))) % 16
		s := start(i)
		out[i] = Contact{A: a, B: b, Start: s, End: s + 1 + float64(rng.Intn(4))}
	}
	return out
}

// perPairRuns is what every generator emits before normalizing: for each
// pair in (A, B) order, that pair's contacts in time order.
func perPairRuns(rng *rand.Rand, n int) []Contact {
	out := make([]Contact, 0, n)
	for a := NodeID(0); len(out) < n; a = (a + 1) % 64 {
		for b := a + 1; b < 64 && len(out) < n; b++ {
			for t := rng.ExpFloat64() * 3600; t < 30*86400 && len(out) < n; t += 60 + rng.ExpFloat64()*86400 {
				out = append(out, Contact{A: a, B: b, Start: t, End: t + 60})
			}
		}
	}
	return out
}

// orderSizes are n = 0, 1, 2 and sizes on either side of each threshold
// of the bucket passes: a leaf's bucket pass (2·bucketSize contacts), a
// run the insertion sort finishes rather than the comparison sort
// (4·bucketSize), and leafMax, the largest leaf and, one above it, the
// smallest input with a first pass whose buckets are split across
// workers; and sizes between. Sizes on either side of fanout·leafMax are
// in TestNormalizeTwoLevels.
var orderSizes = []int{0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 71, 72, 73, 500, 4096, 20000, leafMax - 1, leafMax, leafMax + 1}

func TestNormalizeMatchesComparisonSort(t *testing.T) {
	for _, shape := range orderShapes {
		for _, n := range orderSizes {
			t.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					in := shape.build(rand.New(rand.NewSource(seed)), n)
					if diff := sameOrder(normalized(in), comparisonSort(in)); diff != "" {
						t.Fatalf("seed %d: %s", seed, diff)
					}
				}
			})
		}
	}
}

// encodeContacts and decodeContacts map contacts to fuzz input and back:
// 11 bytes each, the endpoints (mod 16), the end's offset from the start,
// and the start's IEEE bits.
func encodeContacts(cs []Contact) []byte {
	var out []byte
	for _, c := range cs {
		out = append(out, byte(c.A), byte(c.B), byte(c.End-c.Start))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(c.Start))
	}
	return out
}

func decodeContacts(in []byte) []Contact {
	var out []Contact
	for ; len(in) >= 11; in = in[11:] {
		s := math.Float64frombits(binary.LittleEndian.Uint64(in[3:]))
		out = append(out, Contact{A: NodeID(in[0] % 16), B: NodeID(in[1] % 16), Start: s, End: s + float64(in[2])})
	}
	return out
}

// FuzzNormalize holds Normalize to the comparison sort's order on any
// contacts, NaN and infinite times included. The seed corpus runs with
// the normal test suite; `go test -run '^$' -fuzz '^FuzzNormalize$'
// ./internal/trace` explores further.
func FuzzNormalize(f *testing.F) {
	for i, shape := range orderShapes {
		for _, n := range []int{2, 33, 200} {
			f.Add(encodeContacts(shape.build(rand.New(rand.NewSource(int64(i))), n)))
		}
	}
	f.Add(encodeContacts([]Contact{{A: 1, B: 0, Start: math.NaN(), End: 1}, {A: 0, B: 1, Start: 2, End: 3}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeContacts(data)
		if diff := sameOrder(normalized(in), comparisonSort(in)); diff != "" {
			t.Fatalf("%s\ninput: %+v", diff, in)
		}
	})
}

// TestNormalizeTwoLevels orders inputs on either side of fanout·leafMax
// contacts, where the first pass's buckets stop being leaves and a second
// pass splits them. At 2 million contacts one comparison sort of a copy
// would take longer than the test, so the check is the reference order's
// definition: each contact sorts no earlier than the one before it, and
// the contacts are the input's, counted by a sum of their hashes.
func TestNormalizeTwoLevels(t *testing.T) {
	for _, n := range []int{fanout*leafMax - 1, fanout*leafMax + 1} {
		cs := perPairRuns(rand.New(rand.NewSource(int64(n))), n)
		want := contactSum(cs)
		tr := &Trace{Contacts: cs}
		tr.Normalize()
		for i := 1; i < n; i++ {
			if compareContacts(cs[i-1], cs[i]) > 0 {
				t.Fatalf("n=%d: #%d %+v sorts after #%d %+v", n, i-1, cs[i-1], i, cs[i])
			}
		}
		if got := contactSum(cs); got != want {
			t.Fatalf("n=%d: the contacts' hash sum is %#x after normalizing, %#x before", n, got, want)
		}
	}
}

// contactSum adds a 64-bit hash of each contact's bits, so it does not
// depend on the contacts' order.
func contactSum(cs []Contact) uint64 {
	var sum uint64
	for _, c := range cs {
		h := uint64(14695981039346656037)
		for _, w := range [4]uint64{uint64(c.A), uint64(c.B), math.Float64bits(c.Start), math.Float64bits(c.End)} {
			h = (h ^ w) * 1099511628211
			h ^= h >> 29
		}
		sum += h
	}
	return sum
}

// TestNormalizeScratchBound holds the bucket passes to scratch that is
// small next to the contacts: under an eighth of the contacts' bytes, in a
// fixed number of allocations on one core. On eight cores each worker
// that sorts first-pass buckets may allocate up to workerAllocs more: its
// goroutine's closure, its own leaf scratch, and the runtime's descriptor
// and bookkeeping for a goroutine when no finished one is free for reuse
// (20–27 in all at eight cores under -race, Go 1.24). One sort before the
// count lets the runtime start the threads it keeps for the added cores.
// A rewrite that orders through a full-size buffer fails here rather than
// in a workload's peak RSS.
func TestNormalizeScratchBound(t *testing.T) {
	const n, runs, maxAllocs, workerAllocs = 100_000, 4, 4, 4
	src := perPairRuns(rand.New(rand.NewSource(1)), n)
	tr := &Trace{Contacts: make([]Contact, n)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		limitAllocs := uint64(maxAllocs)
		if procs > 1 {
			limitAllocs += workerAllocs * uint64(procs)
			copy(tr.Contacts, src)
			tr.Normalize()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			copy(tr.Contacts, src)
			tr.Normalize()
		}
		runtime.ReadMemStats(&after)
		allocs := (after.Mallocs - before.Mallocs) / runs
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		limit := uint64(n * unsafe.Sizeof(Contact{}) / 8)
		t.Logf("GOMAXPROCS %d, normalizing %d contacts: %d allocations, %d bytes (limit %d)", procs, n, allocs, bytes, limit)
		if allocs > limitAllocs || bytes >= limit {
			t.Fatalf("GOMAXPROCS %d: normalizing %d contacts made %d allocations of %d bytes; want at most %d and under %d bytes", procs, n, allocs, bytes, limitAllocs, limit)
		}
		if diff := sameOrder(tr.Contacts, comparisonSort(src)); diff != "" {
			t.Fatalf("GOMAXPROCS %d: %s", procs, diff)
		}
	}
}

// TestNormalizeSplitsOnlyAboveLeaf: no worker starts on one core, or for
// an input that is one leaf. Starting one allocates its closure, so either
// sort makes exactly one allocation, the leaf scratch.
func TestNormalizeSplitsOnlyAboveLeaf(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct{ procs, n int }{{1, 100_000}, {8, leafMax}} {
		runtime.GOMAXPROCS(tc.procs)
		src := perPairRuns(rand.New(rand.NewSource(1)), tc.n)
		tr := &Trace{Contacts: make([]Contact, tc.n)}
		allocs := testing.AllocsPerRun(4, func() {
			copy(tr.Contacts, src)
			tr.Normalize()
		})
		if allocs != 1 {
			t.Errorf("GOMAXPROCS %d, %d contacts: %v allocations, want the leaf scratch alone", tc.procs, tc.n, allocs)
		}
	}
}

// pairRuns draws n contacts as a generator emits them before normalizing:
// for each pair (A, B) of nodes in order, meeting with probability meet, a
// Poisson run of contacts in time order over duration seconds, spaced so
// that the runs over all pairs hold about n contacts. It draws the pairs
// again until it has n.
func pairRuns(rng *rand.Rand, nodes, n int, meet, duration float64) []Contact {
	out := make([]Contact, 0, n)
	gap := duration * meet * float64(nodes*(nodes-1)/2) / float64(n)
	for len(out) < n {
		for a := NodeID(0); int(a) < nodes && len(out) < n; a++ {
			for b := a + 1; int(b) < nodes && len(out) < n; b++ {
				if rng.Float64() >= meet {
					continue
				}
				for t := rng.ExpFloat64() * gap; t < duration && len(out) < n; t += 120 + rng.ExpFloat64()*gap {
					out = append(out, Contact{A: a, B: b, Start: t, End: t + 120})
				}
			}
		}
	}
	return out
}

// BenchmarkNormalize orders per-pair runs shaped like the traces the
// benchmark workloads replay: largen-5k's E21 trace (5,000 nodes, about
// 127,000 meeting pairs, 1.2 million contacts over 4 days) and a
// reality-like trace before its nightly thinning (97 nodes, about 2,500
// meeting pairs, 160,000 contacts over 30 days).
func BenchmarkNormalize(b *testing.B) {
	for _, shape := range []struct {
		name          string
		nodes, n      int
		meet, seconds float64
	}{
		{"largen-5k", 5000, 1_200_000, 127_000.0 / (5000 * 4999 / 2), 4 * 86400},
		{"reality-like", 97, 160_000, 2_500.0 / (97 * 96 / 2), 30 * 86400},
	} {
		b.Run(shape.name, func(b *testing.B) {
			src := pairRuns(rand.New(rand.NewSource(1)), shape.nodes, shape.n, shape.meet, shape.seconds)
			tr := &Trace{Contacts: make([]Contact, len(src))}
			b.SetBytes(int64(len(src)) * int64(unsafe.Sizeof(Contact{})))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(tr.Contacts, src)
				b.StartTimer()
				tr.Normalize()
			}
		})
	}
}
