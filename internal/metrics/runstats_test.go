package metrics

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRunStatsAccumulates(t *testing.T) {
	s := NewRunStats()
	s.Record("E2/a", Result{SimulatedEventCount: 100, WallClockSeconds: 0.5,
		TransmissionsByKind: map[string]int{"refresh": 4, "relay": 2}})
	s.Record("E2/b", Result{SimulatedEventCount: 50, WallClockSeconds: 0.25,
		TransmissionsByKind: map[string]int{"refresh": 1}})
	// Other experiments' rows stay out of E2's footer: E20 shares E2's
	// first characters, and E11 records its sweeps as E11-churn and
	// E11-loss.
	s.Record("E20/a", Result{SimulatedEventCount: 7})
	s.Record("E11-churn/a", Result{SimulatedEventCount: 3})
	s.Record("E11-loss/a", Result{SimulatedEventCount: 4})
	if s.Events() != 164 {
		t.Fatalf("events = %d, want 164", s.Events())
	}
	sum := s.Summary("E2", 0.5)
	for _, want := range []string{"cells=2", "events=150", "tx=7", "refresh 5", "relay 2", "cells/s", "simWall=0.75s"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary %q missing %q", sum, want)
		}
	}
	for id, want := range map[string]string{
		"E20": "cells=1 events=7 tx=0 ",
		"E11": "cells=2 events=7 tx=0 ",
	} {
		if got := s.Summary(id, 0); !strings.HasPrefix(got, want) {
			t.Errorf("%s summary %q, want prefix %q", id, got, want)
		}
	}
	if got := s.Summary("E1", 1); got != "" {
		t.Errorf("E1 recorded no run, summary %q", got)
	}
}

func TestRunStatsConcurrent(t *testing.T) {
	s := NewRunStats()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Record(fmt.Sprintf("E2/w%d/%03d", i, j),
					Result{SimulatedEventCount: 1, TransmissionsByKind: map[string]int{"refresh": 1}})
			}
		}()
	}
	wg.Wait()
	if s.Events() != 800 {
		t.Fatalf("concurrent events = %d, want 800", s.Events())
	}
	if sum := s.Summary("E2", 0); !strings.HasPrefix(sum, "cells=800 events=800 tx=800 ") {
		t.Fatalf("concurrent summary %q", sum)
	}
}

func TestRunStatsKindCountsSorted(t *testing.T) {
	s := NewRunStats()
	s.Record("E2/a", Result{TransmissionsByKind: map[string]int{
		"relay": 2, "refresh": 4, "query": 1, "data": 3, "gossip": 5,
	}})
	// The rendered footer must list kinds in the same ascending order every
	// time (it used to follow map-iteration order).
	want := "[data 3, gossip 5, query 1, refresh 4, relay 2]"
	for i := 0; i < 20; i++ {
		if sum := s.Summary("E2", 0); !strings.Contains(sum, want) {
			t.Fatalf("summary %q missing sorted block %q", sum, want)
		}
	}
}

func TestRunStatsHistogramFooter(t *testing.T) {
	s := NewRunStats()
	delay := NewHist(DelayBuckets())
	age := NewHist(DelayBuckets())
	for _, v := range []float64{10, 100, 1000} {
		delay.Observe(v)
		age.Observe(v * 2)
	}
	s.Record("E2/a", Result{Scheme: "hierarchical", DeliveryDelayHist: delay, RefreshAgeHist: age})
	sum := s.Summary("E2", 1)
	for _, want := range []string{
		"delay[mean=370s min=10s max=1000s p50=", "age[mean=740s min=20s max=2000s p50=",
		"p90=", "p99=",
	} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary %q missing %q", sum, want)
		}
	}
	ru := s.SchemeRollups()
	if len(ru) != 1 || ru[0].DeliveryDelayHist.Total != 3 || ru[0].RefreshAgeHist.Total != 3 {
		t.Fatalf("roll-ups: %+v", ru)
	}
	// A roll-up is merged afresh: changing it changes neither the next
	// roll-up nor the recorded run's histogram.
	ru[0].DeliveryDelayHist.Observe(1)
	if s.SchemeRollups()[0].DeliveryDelayHist.Total != 3 || delay.Total != 3 {
		t.Fatal("SchemeRollups returned recorded state")
	}
}

// TestRunStatsOrderIndependent: the roll-ups and the footer depend on the
// set of rows, not on the order they were recorded in. A float sum does
// depend on order: merging delays 0.1, 0.2 and 0.3 in that order sums to
// 0.6000000000000001, in the reverse order to 0.6, so the readers merge
// in label order whatever order the sweep workers recorded in.
func TestRunStatsOrderIndependent(t *testing.T) {
	rows := []struct {
		label, scheme string
		delay         float64
	}{
		{"E2/a", "hierarchical", 0.1}, {"E2/b", "hierarchical", 0.2},
		{"E2/c", "hierarchical", 0.3}, {"E2/d", "direct", 40},
	}
	record := func(order []int) *RunStats {
		s := NewRunStats()
		for _, i := range order {
			h := NewHist(DelayBuckets())
			h.Observe(rows[i].delay)
			s.Record(rows[i].label, Result{Scheme: rows[i].scheme, Deliveries: 1,
				SimulatedEventCount: 10, WallClockSeconds: rows[i].delay,
				TransmissionsByKind: map[string]int{"refresh": i},
				DeliveryDelayHist:   h, RefreshAgeHist: h})
		}
		return s
	}
	fwd, rev := record([]int{0, 1, 2, 3}), record([]int{3, 2, 1, 0})
	a, b := fwd.SchemeRollups(), rev.SchemeRollups()
	if !reflect.DeepEqual(a, b) {
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		t.Fatalf("roll-ups depend on record order:\n%s\n%s", ja, jb)
	}
	if len(a) != 2 || a[0].Scheme != "direct" || a[1].Scheme != "hierarchical" || a[1].Runs != 3 {
		t.Fatalf("roll-ups: %+v", a)
	}
	var want float64
	for _, r := range rows[:3] {
		want += r.delay
	}
	if got := a[1].DeliveryDelayHist.Sum; got != want {
		t.Fatalf("hierarchical delay sum %v, want the label-order sum %v", got, want)
	}
	if fs, rs := fwd.Summary("E2", 1), rev.Summary("E2", 1); fs != rs {
		t.Fatalf("footer depends on record order:\n%s\n%s", fs, rs)
	}
}
