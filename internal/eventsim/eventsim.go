// Package eventsim implements the discrete-event simulation engine the
// opportunistic-network simulator runs on: a future-event list ordered by
// simulated time with deterministic tie-breaking, so that two runs with
// the same seed produce byte-identical results.
//
// The future-event list is split into two streams:
//
//   - compiled static timelines ([]StaticEvent): flat, pre-sorted arrays
//     of events known before the run starts (trace contacts, pre-planned
//     query issues, measurement ticks), replayed by cursor with zero heap
//     operations and zero per-event closures;
//   - a binary min-heap holding only truly dynamic events (refresh
//     deliveries, duty timers, epoch rebuilds) scheduled while the
//     simulation runs.
//
// Both streams are merged at dispatch time on the exact (time, seq)
// ordering a single heap would produce: AttachTimeline consumes one
// contiguous block of sequence numbers, so equal-time ties between static
// and dynamic events resolve identically to scheduling every static event
// through ScheduleAt at the attach point.
//
// Simulated time is a float64 number of seconds from the start of the
// scenario. The engine knows nothing about contacts, caches or protocols;
// higher layers schedule closures or attach timelines.
package eventsim

import (
	"container/heap"
	"errors"
	"fmt"
)

// Handler is a scheduled action. It runs at its scheduled simulated time
// and may schedule further events.
type Handler func(now float64)

// StaticEvent is one entry of a compiled timeline: an absolute simulated
// time plus an opaque payload handed back to the timeline's dispatch
// function. Timelines are immutable once attached, so one compiled
// timeline can be shared read-only across concurrent simulators.
type StaticEvent struct {
	Time float64
	Arg  int32
}

// Dispatch executes one static event. It receives the event's Arg and the
// current simulated time, and may schedule dynamic events.
type Dispatch func(arg int32, now float64)

// timeline is one attached static stream: a cursor over a pre-sorted
// event array plus the contiguous sequence-number block reserved at
// attach time (seq of events[i] is seqBase+i).
type timeline struct {
	events   []StaticEvent
	dispatch Dispatch
	seqBase  uint64
	cursor   int
}

// event is a single dynamic future-event-list entry. Events are pooled:
// once popped, the struct is recycled for a later ScheduleAt, so a long
// run allocates O(peak pending) events rather than O(processed).
type event struct {
	time    float64
	seq     uint64 // insertion order; breaks time ties deterministically
	handler Handler
}

// eventQueue is a min-heap over (time, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) {
	ev, ok := x.(*event)
	if !ok {
		panic("eventsim: pushed non-event")
	}
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Simulator owns simulated time and the future event list. The zero value
// is not usable; create with New.
type Simulator struct {
	now     float64
	queue   eventQueue
	streams []timeline
	nextSeq uint64
	running bool
	stopped bool
	// free holds recycled event structs for reuse by ScheduleAt.
	free []*event
	// processed counts events executed, for diagnostics and scalability
	// experiments.
	processed uint64
	// onProcessed, when set, observes (processed count, pending count)
	// after each executed event. Kept nil in normal runs so the hot loop
	// pays one predictable branch.
	onProcessed func(processed uint64, pending int)
}

// SetProcessedHook installs f to be called after every executed event with
// the cumulative processed count and the current pending count (dynamic
// heap plus remaining static-timeline events). Pass nil to remove.
// Observability layers use this to sample event-queue depth.
func (s *Simulator) SetProcessedHook(f func(processed uint64, pending int)) {
	s.onProcessed = f
}

// New returns a simulator positioned at time zero with an empty event
// list.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time. During an event handler this is
// the handler's scheduled time.
func (s *Simulator) Now() float64 { return s.now }

// Processed reports how many events have been executed so far. Engines
// surface this through metrics.Result (and sweep-level RunStats) as the
// per-run simulated-event count.
func (s *Simulator) Processed() uint64 { return s.processed }

// Scheduled reports how many events have ever been scheduled (executed or
// still pending), counting every static-timeline entry at its attach
// point. Together with Processed it bounds how much scheduled work a run
// abandoned at the horizon.
func (s *Simulator) Scheduled() uint64 { return s.nextSeq }

// Pending reports how many events are currently scheduled: the dynamic
// heap plus all static-timeline events the cursors have not yet replayed.
func (s *Simulator) Pending() int {
	n := s.queue.Len()
	for i := range s.streams {
		n += len(s.streams[i].events) - s.streams[i].cursor
	}
	return n
}

// ErrPastEvent is returned when an event is scheduled before the current
// simulated time.
var ErrPastEvent = errors.New("eventsim: event scheduled in the past")

// ErrUnsorted is returned when a timeline's events are not sorted by
// non-decreasing time.
var ErrUnsorted = errors.New("eventsim: timeline not sorted by time")

// AttachTimeline installs a compiled static timeline. Events must be
// sorted by non-decreasing Time, with the first event no earlier than the
// current simulated time. The attach consumes one contiguous block of
// len(events) sequence numbers, so dispatch order — including equal-time
// ties against dynamic events and other timelines — is exactly what
// scheduling each event through ScheduleAt here would produce.
//
// The events slice is retained and read during Run; it must not be
// mutated afterwards. Sharing one slice across simulators is safe.
func (s *Simulator) AttachTimeline(events []StaticEvent, dispatch Dispatch) error {
	if len(events) == 0 {
		return nil
	}
	if dispatch == nil {
		return errors.New("eventsim: nil timeline dispatch")
	}
	if events[0].Time < s.now {
		return fmt.Errorf("%w: t=%v now=%v", ErrPastEvent, events[0].Time, s.now)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			return fmt.Errorf("%w: events[%d]=%v after events[%d]=%v",
				ErrUnsorted, i-1, events[i-1].Time, i, events[i].Time)
		}
	}
	s.streams = append(s.streams, timeline{
		events:   events,
		dispatch: dispatch,
		seqBase:  s.nextSeq,
	})
	s.nextSeq += uint64(len(events))
	return nil
}

// eventSlabSize is how many event structs one pool refill allocates.
// Bulk-scheduled workloads then cost one allocation per slab instead of
// one per event.
const eventSlabSize = 64

// alloc returns an event struct ready for scheduling, recycled when
// possible and slab-allocated otherwise.
func (s *Simulator) alloc(t float64, h Handler) *event {
	if len(s.free) == 0 {
		slab := make([]event, eventSlabSize)
		for i := range slab {
			s.free = append(s.free, &slab[i])
		}
	}
	n := len(s.free)
	ev := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	ev.time = t
	ev.handler = h
	return ev
}

// recycle retires an event struct that left the queue. The handler
// reference is dropped immediately — a popped event must not pin its
// closure (and everything the closure captures) until the struct happens
// to be reused.
func (s *Simulator) recycle(ev *event) {
	ev.handler = nil
	s.free = append(s.free, ev)
}

// ScheduleAt schedules h to run at absolute simulated time t. Events at
// equal times run in scheduling order. Scheduling at the current time is
// allowed (the event runs after the current handler returns).
func (s *Simulator) ScheduleAt(t float64, h Handler) error {
	if t < s.now {
		return fmt.Errorf("%w: t=%v now=%v", ErrPastEvent, t, s.now)
	}
	if h == nil {
		return errors.New("eventsim: nil handler")
	}
	ev := s.alloc(t, h)
	ev.seq = s.nextSeq
	s.nextSeq++
	heap.Push(&s.queue, ev)
	return nil
}

// Stop makes Run return after the current handler completes. It is meant
// to be called from inside a handler.
func (s *Simulator) Stop() { s.stopped = true }

// Reset rewinds the simulator to time zero with an empty event list so a
// worker can reuse it for the next run: pending dynamic events are
// recycled into the slab pool (keeping event storage and heap capacity
// warm), attached timelines are detached, and the seq/processed counters
// restart. The processed hook is cleared. Reset must not be called from
// inside a running handler.
func (s *Simulator) Reset() {
	if s.running {
		panic("eventsim: Reset during Run")
	}
	for _, ev := range s.queue {
		s.recycle(ev)
	}
	s.queue = s.queue[:0]
	for i := range s.streams {
		s.streams[i] = timeline{}
	}
	s.streams = s.streams[:0]
	s.now = 0
	s.nextSeq = 0
	s.processed = 0
	s.stopped = false
	s.onProcessed = nil
}

// Run executes events in time order until the event list is empty, an
// event beyond `until` is reached (that event stays queued), or Stop is
// called. It returns the final simulated time, which is `until` when the
// horizon was reached.
//
// Each iteration compares the earliest static-cursor head against the
// heap top on (time, seq); the contiguous seq blocks reserved at attach
// time make that comparison reproduce single-heap order exactly.
func (s *Simulator) Run(until float64) (float64, error) {
	if s.running {
		return s.now, errors.New("eventsim: Run called re-entrantly")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()

	for !s.stopped {
		// Earliest static head across attached timelines. Scenario runs
		// attach at most a handful of streams, so a linear scan beats any
		// index structure here.
		var st *timeline
		var stTime float64
		var stSeq uint64
		for i := range s.streams {
			t := &s.streams[i]
			if t.cursor >= len(t.events) {
				continue
			}
			ht := t.events[t.cursor].Time
			hs := t.seqBase + uint64(t.cursor)
			if st == nil || ht < stTime || (ht == stTime && hs < stSeq) {
				st, stTime, stSeq = t, ht, hs
			}
		}
		var next *event
		if len(s.queue) > 0 {
			next = s.queue[0]
		}
		if st == nil && next == nil {
			break
		}
		if st != nil && (next == nil || stTime < next.time || (stTime == next.time && stSeq < next.seq)) {
			if stTime > until {
				s.now = until
				return s.now, nil
			}
			arg := st.events[st.cursor].Arg
			st.cursor++
			s.now = stTime
			s.processed++
			st.dispatch(arg, s.now)
			if s.onProcessed != nil {
				s.onProcessed(s.processed, s.Pending())
			}
			continue
		}
		if next.time > until {
			s.now = until
			return s.now, nil
		}
		popped, ok := heap.Pop(&s.queue).(*event)
		if !ok {
			return s.now, errors.New("eventsim: corrupt event queue")
		}
		s.now = popped.time
		s.processed++
		h := popped.handler
		// Recycle before running: the struct no longer references the
		// handler while the handler executes, and the handler is free to
		// schedule new events (which may reuse this very struct).
		s.recycle(popped)
		h(s.now)
		if s.onProcessed != nil {
			s.onProcessed(s.processed, s.Pending())
		}
	}
	if s.now < until && !s.stopped {
		s.now = until
	}
	return s.now, nil
}
