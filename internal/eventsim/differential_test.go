package eventsim

import (
	"fmt"
	"testing"
)

// record formats one dispatched event so order comparisons catch any
// divergence in time, stream attribution or payload.
func record(label string, now float64, arg int32) string {
	return fmt.Sprintf("%s@%v#%d", label, now, arg)
}

// scheduler is what buildMixed drives: the Simulator, or naiveScheduler,
// its reference.
type scheduler interface {
	AttachTimeline(events []StaticEvent, dispatch Dispatch) error
	Run(until float64) (float64, error)
	Pending() int
	Processed() uint64
}

// naiveEvent is one attached event of naiveScheduler: its time, its
// timeline's attach number and its index in that timeline.
type naiveEvent struct {
	time     float64
	attach   int
	index    int
	arg      int32
	dispatch Dispatch
}

// naiveScheduler is the reference the Simulator's cursor scan must match.
// It keeps every attached event in one list and, at each step, runs the
// pending event with the least (time, attach number, index).
type naiveScheduler struct {
	now       float64
	pending   []naiveEvent
	attached  int
	processed uint64
}

func (n *naiveScheduler) AttachTimeline(events []StaticEvent, dispatch Dispatch) error {
	for i, ev := range events {
		n.pending = append(n.pending, naiveEvent{ev.Time, n.attached, i, ev.Arg, dispatch})
	}
	n.attached++
	return nil
}

func (n *naiveScheduler) Run(until float64) (float64, error) {
	for len(n.pending) > 0 {
		best := 0
		for i, ev := range n.pending {
			b := n.pending[best]
			if ev.time < b.time || ev.time == b.time &&
				(ev.attach < b.attach || ev.attach == b.attach && ev.index < b.index) {
				best = i
			}
		}
		ev := n.pending[best]
		if ev.time > until {
			break
		}
		n.pending = append(n.pending[:best], n.pending[best+1:]...)
		n.now = ev.time
		n.processed++
		ev.dispatch(ev.arg, n.now)
	}
	n.now = max(n.now, until)
	return n.now, nil
}

func (n *naiveScheduler) Pending() int      { return len(n.pending) }
func (n *naiveScheduler) Processed() uint64 { return n.processed }

// buildMixed replays one fuzz-derived program of timeline attaches against
// s and returns the dispatch order.
//
// Byte decoding (per op byte b): kind = b%4, time = float64((b/4)%8).
//   - kind 0/1: append an event at `time` (clamped non-decreasing) to the
//     pending A/B timeline builder;
//   - kind 2: attach a one-event timeline at `time`; at odd times its
//     dispatch attaches, mid-run, a timeline of two events at the current
//     instant and one second later, so ties between timelines attached
//     before the run and during it are exercised too;
//   - kind 3: attach the pending A builder as its own timeline and start
//     a new builder.
//
// Any builders left over are attached at the end, then the run happens in
// two legs (horizon 4.0, then 100) to cross the horizon with live
// cursors.
func buildMixed(t *testing.T, data []byte, s scheduler) (order []string, pendingAtHorizon int, processed uint64) {
	t.Helper()
	dispatchFor := func(label string) Dispatch {
		return func(arg int32, now float64) {
			order = append(order, record(label, now, arg))
		}
	}
	attach := func(events []StaticEvent, d Dispatch) {
		if err := s.AttachTimeline(events, d); err != nil {
			t.Fatalf("attach %v: %v", events, err)
		}
	}
	var bldA, bldB []StaticEvent
	nTimelines := 0
	clampAppend := func(bld []StaticEvent, tm float64, arg int32) []StaticEvent {
		if n := len(bld); n > 0 && tm < bld[n-1].Time {
			tm = bld[n-1].Time
		}
		return append(bld, StaticEvent{Time: tm, Arg: arg})
	}
	if len(data) > 200 {
		data = data[:200]
	}
	for i, b := range data {
		tm := float64((b / 4) % 8)
		arg := int32(i)
		switch b % 4 {
		case 0:
			bldA = clampAppend(bldA, tm, arg)
		case 1:
			bldB = clampAppend(bldB, tm, arg)
		case 2:
			odd := int(tm)%2 == 1
			attach([]StaticEvent{{Time: tm, Arg: arg}}, func(arg int32, now float64) {
				order = append(order, record("one", now, arg))
				if odd {
					attach([]StaticEvent{{Time: now, Arg: arg}, {Time: now + 1, Arg: arg}}, dispatchFor("child"))
				}
			})
		case 3:
			attach(bldA, dispatchFor(fmt.Sprintf("tl%d", nTimelines)))
			nTimelines++
			bldA = nil
		}
	}
	attach(bldA, dispatchFor(fmt.Sprintf("tl%d", nTimelines)))
	attach(bldB, dispatchFor("tlB"))
	if _, err := s.Run(4); err != nil {
		t.Fatal(err)
	}
	pendingAtHorizon = s.Pending()
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	return order, pendingAtHorizon, s.Processed()
}

// FuzzStaticDynamicTieBreak is the differential oracle for the
// Simulator's cursor scan: any program of timelines attached before the
// run and during it, with heavy equal-time collisions by construction
// (times live in 0..8), must dispatch in exactly the order naiveScheduler
// produces, with identical horizon-pending counts and processed totals.
func FuzzStaticDynamicTieBreak(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	// Ties everywhere: appends and one-event timelines all at t=1
	// (b/4 == 1), the odd time that attaches mid-run.
	f.Add([]byte{4, 5, 6, 4, 5, 6, 7, 4, 6})
	// Multiple mid-stream attaches splitting timeline A.
	f.Add([]byte{0, 8, 3, 16, 24, 3, 2, 10, 18, 1, 9, 17})
	// Odd one-event times attach at the current instant mid-run.
	f.Add([]byte{6, 14, 22, 30, 5, 13, 21, 29, 3, 6, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotPend, gotProc := buildMixed(t, data, New())
		want, wantPend, wantProc := buildMixed(t, data, &naiveScheduler{})
		if len(got) != len(want) {
			t.Fatalf("dispatched %d events, reference %d\n got: %v\nwant: %v",
				len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("order diverged at %d: %s vs %s\n got: %v\nwant: %v",
					i, got[i], want[i], got, want)
			}
		}
		if gotPend != wantPend {
			t.Fatalf("pending at horizon = %d, reference %d", gotPend, wantPend)
		}
		if gotProc != wantProc {
			t.Fatalf("processed = %d, reference %d", gotProc, wantProc)
		}
	})
}
