package eventsim

import (
	"errors"
	"fmt"
	"testing"
)

// record formats one dispatched event so order comparisons catch any
// divergence in time, stream attribution or payload.
func record(label string, now float64, arg int32) string {
	return fmt.Sprintf("%s@%v#%d", label, now, arg)
}

func TestAttachTimelineValidation(t *testing.T) {
	s := New()
	if err := s.AttachTimeline(nil, nil); err != nil {
		t.Fatalf("empty timeline: %v", err)
	}
	if s.Scheduled() != 0 {
		t.Fatalf("empty attach consumed %d seqs", s.Scheduled())
	}
	if err := s.AttachTimeline([]StaticEvent{{Time: 1}}, nil); err == nil {
		t.Fatal("nil dispatch accepted")
	}
	noop := func(int32, float64) {}
	err := s.AttachTimeline([]StaticEvent{{Time: 2}, {Time: 1}}, noop)
	if !errors.Is(err, ErrUnsorted) {
		t.Fatalf("unsorted timeline: err = %v, want ErrUnsorted", err)
	}
	mustSchedule(t, s, 5, func(float64) {})
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	err = s.AttachTimeline([]StaticEvent{{Time: 3}}, noop)
	if !errors.Is(err, ErrPastEvent) {
		t.Fatalf("past timeline: err = %v, want ErrPastEvent", err)
	}
}

func TestPendingCountsStaticRemains(t *testing.T) {
	s := New()
	tl := []StaticEvent{{Time: 1}, {Time: 2}, {Time: 6}, {Time: 7}}
	if err := s.AttachTimeline(tl, func(int32, float64) {}); err != nil {
		t.Fatal(err)
	}
	mustSchedule(t, s, 3, func(float64) {})
	mustSchedule(t, s, 8, func(float64) {})
	if s.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", s.Pending())
	}
	if _, err := s.Run(4); err != nil {
		t.Fatal(err)
	}
	// Events at 1, 2, 3 ran; 6, 7 (static) and 8 (dynamic) remain.
	if s.Pending() != 3 {
		t.Fatalf("pending after partial run = %d, want 3", s.Pending())
	}
	if s.Processed() != 3 {
		t.Fatalf("processed = %d, want 3", s.Processed())
	}
}

func TestResetClearsEverything(t *testing.T) {
	s := New()
	s.SetProcessedHook(func(uint64, int) {})
	mustSchedule(t, s, 1, func(float64) {})
	mustSchedule(t, s, 9, func(float64) {})
	if _, err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	noFreeHandlers(t, s)
	if s.Now() != 0 || s.Pending() != 0 || s.Scheduled() != 0 || s.Processed() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d scheduled=%d processed=%d",
			s.Now(), s.Pending(), s.Scheduled(), s.Processed())
	}
	// A fresh attach installs a cursor stream, not per-event heap entries.
	var got []string
	if err := s.AttachTimeline([]StaticEvent{{Time: 2, Arg: 7}}, func(arg int32, now float64) {
		got = append(got, record("tl", now, arg))
	}); err != nil {
		t.Fatal(err)
	}
	if s.queue.Len() != 0 {
		t.Fatalf("attach after Reset put %d events on the heap", s.queue.Len())
	}
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "tl@2#7" {
		t.Fatalf("reused simulator dispatched %v", got)
	}
}

// buildMixed replays one fuzz-derived schedule of timeline appends,
// timeline attaches and dynamic events against a simulator and returns the
// dispatch order. With reference set, each timeline is not attached but
// fed to the heap through one ScheduleAt per event at the attach point:
// the single-heap order the two-stream scheduler must reproduce.
//
// Byte decoding (per op byte b): kind = b%4, time = float64((b/4)%8).
//   - kind 0/1: append an event at `time` (clamped non-decreasing) to the
//     pending A/B timeline builder;
//   - kind 2: ScheduleAt a dynamic event at `time` (clamped >= now of
//     attach-order program flow, i.e. always >= 0 pre-run); odd times
//     reschedule a follow-up at the same instant when they fire, so
//     in-run dynamic ties against static cursors are exercised too;
//   - kind 3: attach the pending A builder as its own timeline (consuming
//     a seq block mid-stream) and start a new builder.
//
// Any builders left over are attached at the end, then the run happens in
// two legs (horizon 4.0, then 100) to cross the horizon with live
// cursors.
func buildMixed(t *testing.T, data []byte, reference bool) (order []string, pendingAtHorizon int, processed uint64) {
	t.Helper()
	s := New()
	dispatchFor := func(label string) Dispatch {
		return func(arg int32, now float64) {
			order = append(order, record(label, now, arg))
		}
	}
	var bldA, bldB []StaticEvent
	nTimelines := 0
	attach := func(events []StaticEvent, label string) {
		if len(events) == 0 {
			return
		}
		dispatch := dispatchFor(label)
		if !reference {
			if err := s.AttachTimeline(events, dispatch); err != nil {
				t.Fatalf("attach %s: %v", label, err)
			}
			return
		}
		for _, ev := range events {
			if err := s.ScheduleAt(ev.Time, func(now float64) { dispatch(ev.Arg, now) }); err != nil {
				t.Fatalf("schedule %s: %v", label, err)
			}
		}
	}
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
			if err := s.ScheduleAt(tm, func(now float64) {
				order = append(order, record("dyn", now, arg))
				if odd {
					if err := s.ScheduleAt(now, func(now float64) {
						order = append(order, record("dyn+", now, arg))
					}); err != nil {
						t.Errorf("in-run reschedule: %v", err)
					}
				}
			}); err != nil {
				t.Fatalf("ScheduleAt(%v): %v", tm, err)
			}
		case 3:
			attach(bldA, fmt.Sprintf("tl%d", nTimelines))
			nTimelines++
			bldA = nil
		}
	}
	attach(bldA, fmt.Sprintf("tl%d", nTimelines))
	attach(bldB, "tlB")
	if _, err := s.Run(4); err != nil {
		t.Fatal(err)
	}
	pendingAtHorizon = s.Pending()
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	return order, pendingAtHorizon, s.Processed()
}

// FuzzStaticDynamicTieBreak is the differential oracle for the two-stream
// scheduler: any interleaving of timeline attaches and dynamic events —
// with heavy equal-time collisions by construction (times live in 0..7) —
// must dispatch in exactly the order buildMixed's single-heap reference
// produces, with identical horizon-pending counts and processed totals.
func FuzzStaticDynamicTieBreak(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	// Ties everywhere: appends and dynamics all at t=1 (b/4 == 1).
	f.Add([]byte{4, 5, 6, 4, 5, 6, 7, 4, 6})
	// Multiple mid-stream attaches splitting timeline A.
	f.Add([]byte{0, 8, 3, 16, 24, 3, 2, 10, 18, 1, 9, 17})
	// Odd dynamic times trigger same-instant in-run reschedules.
	f.Add([]byte{6, 14, 22, 30, 5, 13, 21, 29, 3, 6, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotPend, gotProc := buildMixed(t, data, false)
		want, wantPend, wantProc := buildMixed(t, data, true)
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
