package eventsim

import "testing"

// The pooling regression suite: popped events must release their handler
// closures immediately (not when the pool entry is next reused), and
// recycled structs must be reused.

// noFreeHandlers fails the test if any pooled event still references a
// handler closure — the leak the pool explicitly guards against.
func noFreeHandlers(t *testing.T, s *Simulator) {
	t.Helper()
	for i, ev := range s.free {
		if ev.handler != nil {
			t.Fatalf("free[%d] still holds a handler", i)
		}
	}
}

func TestPoppedEventReleasesHandler(t *testing.T) {
	s := New()
	mustSchedule(t, s, 1, func(float64) {})
	mustSchedule(t, s, 2, func(float64) {})
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	noFreeHandlers(t, s)
}

func TestRecycledEventIsReused(t *testing.T) {
	s := New()
	mustSchedule(t, s, 1, func(float64) {})
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	popped := s.free[len(s.free)-1]
	mustSchedule(t, s, 20, func(float64) {})
	if s.queue[0] != popped {
		t.Fatal("recycled event struct was not reused")
	}
}

func TestHandlerMayScheduleDuringExecution(t *testing.T) {
	// Run recycles the popped struct before invoking the handler, so the
	// handler's own ScheduleAt may reuse it; the chain must still run to
	// completion in order, and the steady-state chain must never need a
	// second slab.
	s := New()
	var order []float64
	var chain func(now float64)
	chain = func(now float64) {
		order = append(order, now)
		if now < 5 {
			if err := s.ScheduleAt(now+1, chain); err != nil {
				t.Errorf("reschedule at %v: %v", now+1, err)
			}
		}
	}
	mustSchedule(t, s, 1, chain)
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
	// One slab served the whole chain: each event's struct went back to
	// the pool before its successor was scheduled.
	if len(s.free) != eventSlabSize {
		t.Fatalf("free list has %d entries, want one slab (%d)", len(s.free), eventSlabSize)
	}
	noFreeHandlers(t, s)
}
