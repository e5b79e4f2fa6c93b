package centrality

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"freshcache/internal/trace"
)

// countKey is the oracle's key for the unordered pair (a, b).
func countKey(a, b int) [2]int { return [2]int{min(a, b), max(a, b)} }

// checkCounted fails unless s holds exactly float64(counts[pair])/window
// for every pair of n nodes that met, and nothing else, in ascending rows.
func checkCounted(t *testing.T, s RateStore, n int, counts map[[2]int]int, window float64) {
	t.Helper()
	if s.N() != n {
		t.Fatalf("store over %d nodes, want %d", s.N(), n)
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			want := 0.0
			if c := counts[countKey(a, b)]; a != b && c > 0 {
				want = float64(c) / window
			}
			if got := s.Rate(trace.NodeID(a), trace.NodeID(b)); got != want {
				t.Fatalf("Rate(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
	}
	entries := 0
	for a, row := range s.rows() {
		for i, nb := range row {
			if i > 0 && row[i-1].id >= nb.id {
				t.Fatalf("row %d not ascending: %v", a, row)
			}
			if nb.rate <= 0 {
				t.Fatalf("row %d holds %v", a, nb)
			}
		}
		entries += len(row)
	}
	met := 0
	for _, c := range counts {
		if c > 0 {
			met++
		}
	}
	if entries != 2*met {
		t.Fatalf("rows hold %d entries for %d pairs that met", entries, met)
	}
}

// FuzzEstimator drives one estimator through Observe, Rates, Snapshot and
// Reset and holds it to a plain map count: every Rate of every store, each
// row's ascending order, and RatesBetweenSnapshots between every two
// snapshots of one Reset, in both orders. Bursts of observations cross
// several folds.
//
// Byte 0 picks n in [2, 64]. Each further op is three bytes (o, x, y),
// with k = o>>2:
//   - o&3 == 0: observe (x%n, y%n) k+1 times (the next node when equal);
//   - o&3 == 1: observe 97·(k+1) pairs drawn from a generator seeded by x
//     and y, in both orientations;
//   - o&3 == 2: snapshot, and check Rates at 1+x after the start;
//   - o&3 == 3: Reset to 2 + x%63 nodes, starting at y.
func FuzzEstimator(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{5, 4, 1, 3, 2, 0, 0, 0, 3, 1, 2, 9, 0})
	f.Add([]byte{62, 253, 7, 9, 2, 3, 0, 253, 1, 1, 2, 9, 9, 3, 10, 3, 125, 4, 4, 2, 7, 0, 253, 8, 8, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n, start := 2+int(data[0])%63, 0.0
		e, err := NewEstimator(n, start)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[[2]int]int{}
		type snapshot struct {
			s      CountSnapshot
			counts map[[2]int]int
		}
		var snaps []snapshot
		observe := func(a, b int) {
			if a == b {
				b = (a + 1) % n
			}
			e.Observe(trace.NodeID(a), trace.NodeID(b))
			counts[countKey(a, b)]++
		}
		checkRates := func(window float64) {
			t.Helper()
			now := start + window
			s, err := e.Rates(now)
			if err != nil {
				t.Fatal(err)
			}
			checkCounted(t, s, n, counts, now-start)
		}
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			o, x, y := ops[0], int(ops[1]), int(ops[2])
			k := int(o >> 2)
			switch o & 3 {
			case 0:
				for range k + 1 {
					observe(x%n, y%n)
				}
			case 1:
				r := uint32(x<<8|y) | 1
				for range 97 * (k + 1) {
					r ^= r << 13
					r ^= r >> 17
					r ^= r << 5
					observe(int(r%uint32(n)), int(r>>16)%n)
				}
			case 2:
				checkRates(1 + float64(x))
				cur := snapshot{e.Snapshot(), make(map[[2]int]int, len(counts))}
				for p, c := range counts {
					cur.counts[p] = c
				}
				for _, old := range snaps {
					checkBetween(t, old.s, cur.s, old.counts, cur.counts, n)
				}
				snaps = append(snaps, cur)
			case 3:
				n, start = 2+x%63, float64(y)
				if err := e.Reset(n, start); err != nil {
					t.Fatal(err)
				}
				clear(counts)
				snaps = snaps[:0]
			}
		}
		checkRates(1)
	})
}

// checkBetween holds RatesBetweenSnapshots to the map counts taken with
// two snapshots of one estimator, before and after. Forwards, each rate is
// the pair's growth over the window. Backwards, it must fail at the lowest
// pair that grew, unless none did.
func checkBetween(t *testing.T, before, after CountSnapshot, bc, ac map[[2]int]int, n int) {
	t.Helper()
	const window = 7
	grew := map[[2]int]int{}
	lowest := [2]int{-1, -1}
	for p, c := range ac {
		if d := c - bc[p]; d > 0 {
			grew[p] = d
			if lowest[0] < 0 || p[0] < lowest[0] || p[0] == lowest[0] && p[1] < lowest[1] {
				lowest = p
			}
		}
	}
	s, err := RatesBetweenSnapshots(before, after, window)
	if err != nil {
		t.Fatal(err)
	}
	checkCounted(t, s, n, grew, window)
	s, err = RatesBetweenSnapshots(after, before, window)
	switch {
	case len(grew) == 0 && err != nil:
		t.Fatalf("equal snapshots refused: %v", err)
	case len(grew) == 0:
		checkCounted(t, s, n, nil, window)
	case err == nil:
		t.Fatal("snapshots accepted in reverse")
	case !strings.HasSuffix(err.Error(), fmt.Sprintf("(%d,%d)", lowest[0], lowest[1])):
		t.Fatalf("reverse error %q, want it to name pair %v", err, lowest)
	}
}

// TestEstimatorResetBound: Reset accepts every node count a packed pair
// can hold, 32 bits per ID, and refuses the next one up.
func TestEstimatorResetBound(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot exceed the bound")
	}
	var e Estimator
	big := uint64(maxNodes)
	if err := e.Reset(int(big), 0); err != nil {
		t.Fatalf("Reset(%d): %v", big, err)
	}
	if err := e.Reset(int(big+1), 0); err == nil {
		t.Fatalf("Reset(%d) accepted", big+1)
	}
	if _, err := NewEstimator(int(big+1), 0); err == nil {
		t.Fatalf("NewEstimator(%d) accepted", big+1)
	}
	if got := packPair(trace.NodeID(big-1), trace.NodeID(big-2)); got != (big-2)<<32|(big-1) {
		t.Fatalf("packPair of the two highest IDs = %#x", got)
	}
}

// TestEstimatorObserveEitherOrientation: Observe(a, b) and Observe(b, a)
// count the same pair, however the calls fall across folds.
func TestEstimatorObserveEitherOrientation(t *testing.T) {
	const n = 5
	e, err := NewEstimator(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[[2]int]int{}
	for i := 0; i < 3*(n+foldFloor); i++ {
		a, b := i%n, (i+1+i/n)%n
		if a == b {
			continue
		}
		e.Observe(trace.NodeID(a), trace.NodeID(b))
		counts[countKey(a, b)]++
	}
	e.Observe(4, 1)
	e.Observe(1, 4)
	counts[countKey(1, 4)] += 2
	s, err := e.Rates(10)
	if err != nil {
		t.Fatal(err)
	}
	checkCounted(t, s, n, counts, 10)
}
