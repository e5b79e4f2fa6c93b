package eventsim

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"
)

// mustAttach attaches a timeline of events at the given times, Arg i for
// the i-th, dispatching to d.
func mustAttach(t *testing.T, s *Simulator, d Dispatch, times ...float64) {
	t.Helper()
	events := make([]StaticEvent, len(times))
	for i, at := range times {
		events[i] = StaticEvent{Time: at, Arg: int32(i)}
	}
	if err := s.AttachTimeline(events, d); err != nil {
		t.Fatalf("AttachTimeline(%v): %v", times, err)
	}
}

func noop(int32, float64) {}

func TestRunsInTimeOrder(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		mustAttach(t, s, func(_ int32, now float64) { got = append(got, now) }, at)
	}
	end, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if end != 100 {
		t.Fatalf("end = %v, want 100", end)
	}
	want := []float64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// On equal times the timeline attached first runs first, and within one
// timeline the earlier entry.
func TestTiesRunInSchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		mustAttach(t, s, func(arg int32, _ float64) { got = append(got, 10*i+int(arg)) }, 7, 7)
	}
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 10, 11, 20, 21, 30, 31, 40, 41}
	if len(got) != len(want) {
		t.Fatalf("tie order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie order = %v, want %v", got, want)
		}
	}
}

func TestHorizonLeavesFutureEventsQueued(t *testing.T) {
	s := New()
	ran := false
	mustAttach(t, s, func(int32, float64) { ran = true }, 50)
	end, err := s.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if end != 10 || ran {
		t.Fatalf("end=%v ran=%v; event beyond horizon must not run", end, ran)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	// A later Run picks it up.
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event did not run on resumed Run")
	}
}

func TestScheduleFromHandler(t *testing.T) {
	s := New()
	var seq []float64
	mustAttach(t, s, func(_ int32, now float64) {
		seq = append(seq, now)
		if err := s.AttachTimeline([]StaticEvent{{Time: now + 2}}, func(_ int32, now float64) {
			seq = append(seq, now)
		}); err != nil {
			t.Errorf("nested attach: %v", err)
		}
	}, 1)
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(seq) != 2 || seq[0] != 1 || seq[1] != 3 {
		t.Fatalf("seq = %v, want [1 3]", seq)
	}
}

// A dispatch may attach a timeline at the current time, as the engine
// attaches its measurement plan at the epoch: it runs after every
// equal-time event of the timelines attached before it.
func TestScheduleAtCurrentTimeFromHandler(t *testing.T) {
	s := New()
	var order []string
	mustAttach(t, s, func(_ int32, now float64) {
		order = append(order, "a")
		if err := s.AttachTimeline([]StaticEvent{{Time: now}}, func(int32, float64) {
			order = append(order, "b")
		}); err != nil {
			t.Errorf("same-time attach: %v", err)
		}
	}, 2)
	mustAttach(t, s, func(int32, float64) { order = append(order, "c") }, 2)
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	// "c" was attached before "b", so the ties run a, c, b.
	if len(order) != 3 || order[0] != "a" || order[1] != "c" || order[2] != "b" {
		t.Fatalf("order = %v", order)
	}
}

func TestAttachTimelineValidation(t *testing.T) {
	s := New()
	if err := s.AttachTimeline(nil, nil); err != nil {
		t.Fatalf("empty timeline: %v", err)
	}
	if s.Pending() != 0 {
		t.Fatalf("empty attach left %d pending", s.Pending())
	}
	err := s.AttachTimeline([]StaticEvent{{Time: 2}, {Time: 1}}, noop)
	if !errors.Is(err, ErrUnsorted) {
		t.Fatalf("unsorted timeline: err = %v, want ErrUnsorted", err)
	}
	if s.Pending() != 0 {
		t.Fatalf("rejected attach left %d pending", s.Pending())
	}
}

func TestPastSchedulingRejected(t *testing.T) {
	s := New()
	mustAttach(t, s, noop, 5)
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	err := s.AttachTimeline([]StaticEvent{{Time: 3}}, noop)
	if !errors.Is(err, ErrPastEvent) {
		t.Fatalf("past timeline: err = %v, want ErrPastEvent", err)
	}
	if s.Pending() != 0 {
		t.Fatalf("rejected attach left %d pending", s.Pending())
	}
}

func TestNilHandlerRejected(t *testing.T) {
	s := New()
	if err := s.AttachTimeline([]StaticEvent{{Time: 1}}, nil); err == nil {
		t.Fatal("nil dispatch accepted")
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	mustAttach(t, s, func(int32, float64) {
		count++
		if count == 3 {
			s.Stop()
		}
	}, 1, 2, 3, 4, 5)
	end, err := s.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if end != 3 {
		t.Fatalf("end = %v, want 3 (time of the stopping event)", end)
	}
	if s.Pending() != 2 {
		t.Fatalf("pending after Stop = %d, want 2", s.Pending())
	}
}

func TestProcessedCount(t *testing.T) {
	s := New()
	var hooked []uint64
	s.SetProcessedHook(func(processed uint64) { hooked = append(hooked, processed) })
	mustAttach(t, s, noop, 0, 1, 2)
	mustAttach(t, s, noop, 3, 4, 5, 6)
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if s.Processed() != 7 {
		t.Fatalf("processed = %d, want 7", s.Processed())
	}
	if len(hooked) != 7 || hooked[0] != 1 || hooked[6] != 7 {
		t.Fatalf("hook saw %v, want 1 to 7", hooked)
	}
}

func TestPendingCountsStaticRemains(t *testing.T) {
	s := New()
	mustAttach(t, s, noop, 1, 2, 6, 7)
	mustAttach(t, s, noop, 3, 8)
	if s.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", s.Pending())
	}
	if _, err := s.Run(4); err != nil {
		t.Fatal(err)
	}
	// Events at 1, 2 and 3 ran; 6, 7 and 8 remain.
	if s.Pending() != 3 {
		t.Fatalf("pending after partial run = %d, want 3", s.Pending())
	}
	if s.Processed() != 3 {
		t.Fatalf("processed = %d, want 3", s.Processed())
	}
}

// Every attached event is processed or pending: the fifth lies beyond
// the horizon, attached but never processed.
func TestScheduledAndProcessedCounters(t *testing.T) {
	s := New()
	mustAttach(t, s, noop, 1, 2, 3, 4, 5)
	if _, err := s.Run(4.5); err != nil {
		t.Fatal(err)
	}
	if s.Processed() != 4 || s.Pending() != 1 {
		t.Fatalf("processed = %d, pending = %d, want 4 and 1", s.Processed(), s.Pending())
	}
}

// Property: for any batch of event times, each attached as its own
// timeline in arbitrary order, execution order is the sorted order of the
// times.
func TestExecutionOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		times := make([]float64, len(raw))
		var got []float64
		for i, r := range raw {
			times[i] = float64(r)
			if err := s.AttachTimeline([]StaticEvent{{Time: times[i]}}, func(_ int32, now float64) {
				got = append(got, now)
			}); err != nil {
				return false
			}
		}
		if _, err := s.Run(70000); err != nil {
			return false
		}
		sort.Float64s(times)
		if len(got) != len(times) {
			return false
		}
		for i := range got {
			if got[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReentrantRunRejected(t *testing.T) {
	s := New()
	var nested error
	mustAttach(t, s, func(int32, float64) { _, nested = s.Run(10) }, 1)
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if nested == nil {
		t.Fatal("re-entrant Run succeeded")
	}
}

func TestResetClearsEverything(t *testing.T) {
	s := New()
	hooked := false
	s.SetProcessedHook(func(uint64) { hooked = true })
	mustAttach(t, s, noop, 1, 9)
	if _, err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 || s.Processed() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d processed=%d", s.Now(), s.Pending(), s.Processed())
	}
	// The rewound simulator accepts a timeline at time zero again and no
	// longer calls the cleared hook.
	hooked = false
	var got []float64
	mustAttach(t, s, func(_ int32, now float64) { got = append(got, now) }, 0, 2)
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("reused simulator dispatched %v, want [0 2]", got)
	}
	if hooked {
		t.Fatal("processed hook survived Reset")
	}
}
