package eventsim

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"
)

func mustSchedule(t *testing.T, s *Simulator, at float64, h Handler) {
	t.Helper()
	if err := s.ScheduleAt(at, h); err != nil {
		t.Fatalf("ScheduleAt(%v): %v", at, err)
	}
}

func TestRunsInTimeOrder(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		mustSchedule(t, s, at, func(now float64) { got = append(got, now) })
	}
	end, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if end != 100 {
		t.Fatalf("end = %v, want 100", end)
	}
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTiesRunInSchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		mustSchedule(t, s, 7, func(float64) { got = append(got, i) })
	}
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestHorizonLeavesFutureEventsQueued(t *testing.T) {
	s := New()
	ran := false
	mustSchedule(t, s, 50, func(float64) { ran = true })
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
	mustSchedule(t, s, 1, func(now float64) {
		seq = append(seq, now)
		if err := s.ScheduleAt(now+2, func(now float64) { seq = append(seq, now) }); err != nil {
			t.Errorf("nested schedule: %v", err)
		}
	})
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(seq) != 2 || seq[0] != 1 || seq[1] != 3 {
		t.Fatalf("seq = %v, want [1 3]", seq)
	}
}

func TestScheduleAtCurrentTimeFromHandler(t *testing.T) {
	s := New()
	var order []string
	mustSchedule(t, s, 2, func(now float64) {
		order = append(order, "a")
		if err := s.ScheduleAt(now, func(float64) { order = append(order, "b") }); err != nil {
			t.Errorf("same-time schedule: %v", err)
		}
	})
	mustSchedule(t, s, 2, func(float64) { order = append(order, "c") })
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	// "c" was scheduled before "b", so ties run a, c, b.
	if len(order) != 3 || order[0] != "a" || order[1] != "c" || order[2] != "b" {
		t.Fatalf("order = %v", order)
	}
}

func TestPastSchedulingRejected(t *testing.T) {
	s := New()
	mustSchedule(t, s, 5, func(float64) {})
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleAt(3, func(float64) {}); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("err = %v, want ErrPastEvent", err)
	}
}

func TestNilHandlerRejected(t *testing.T) {
	s := New()
	if err := s.ScheduleAt(1, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 5; i++ {
		at := float64(i)
		mustSchedule(t, s, at, func(float64) {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
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
}

func TestProcessedCount(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		mustSchedule(t, s, float64(i), func(float64) {})
	}
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if s.Processed() != 7 {
		t.Fatalf("processed = %d, want 7", s.Processed())
	}
}

// Property: for any batch of event times, execution order is the sorted
// order of the times.
func TestExecutionOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		times := make([]float64, len(raw))
		var got []float64
		for i, r := range raw {
			times[i] = float64(r)
			at := times[i]
			if err := s.ScheduleAt(at, func(now float64) { got = append(got, now) }); err != nil {
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
	mustSchedule(t, s, 1, func(float64) {
		_, nested = s.Run(10)
	})
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if nested == nil {
		t.Fatal("re-entrant Run succeeded")
	}
}

func TestScheduledAndProcessedCounters(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		mustSchedule(t, s, float64(i+1), func(float64) {})
	}
	if s.Scheduled() != 5 {
		t.Fatalf("scheduled = %d, want 5", s.Scheduled())
	}
	// The fifth event lies beyond the horizon: scheduled, never processed.
	if _, err := s.Run(4.5); err != nil {
		t.Fatal(err)
	}
	if s.Processed() != 4 {
		t.Fatalf("processed = %d, want 4", s.Processed())
	}
	if s.Scheduled() != 5 {
		t.Fatalf("scheduled after run = %d, want 5", s.Scheduled())
	}
}
