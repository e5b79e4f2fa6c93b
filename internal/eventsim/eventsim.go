// Package eventsim implements the discrete-event simulation engine the
// opportunistic-network simulator runs on: compiled timelines replayed in
// simulated-time order with deterministic tie-breaking, so that two runs
// with the same seed produce byte-identical results.
//
// Every event a trace-driven run dispatches is known before the run
// reaches it: trace contacts, the measurement epoch, periodic rebuilds,
// version generations, freshness samples, timeline ticks and query
// issues. So there is one kind of event, an entry of a compiled timeline
// ([]StaticEvent): a flat array sorted by time, replayed by cursor with no
// heap operations and no per-event closures. A dispatch may attach a
// further timeline at or after the current time, as the engine attaches
// its measurement plan at the epoch.
//
// Run dispatches the earliest cursor head across the attached timelines.
// On equal times the timeline attached first wins, and within a timeline
// the earlier entry: the order of one queue that numbered every event at
// its attach.
//
// Simulated time is a float64 number of seconds from the start of the
// scenario. The engine knows nothing about contacts, caches or protocols;
// higher layers attach timelines.
package eventsim

import (
	"errors"
	"fmt"
)

// StaticEvent is one entry of a compiled timeline: an absolute simulated
// time plus an opaque payload handed back to the timeline's dispatch
// function. Timelines are immutable once attached, so one compiled
// timeline can be shared read-only across concurrent simulators.
type StaticEvent struct {
	Time float64
	Arg  int32
}

// Dispatch executes one static event. It receives the event's Arg and the
// current simulated time, and may attach further timelines.
type Dispatch func(arg int32, now float64)

// timeline is one attached stream: a cursor over a pre-sorted event
// array.
type timeline struct {
	events   []StaticEvent
	dispatch Dispatch
	cursor   int
}

// Simulator owns simulated time and the attached timelines; create one
// with New.
type Simulator struct {
	now     float64
	streams []timeline // in attach order, which breaks time ties
	running bool
	stopped bool
	// processed counts events executed, for diagnostics and scalability
	// experiments.
	processed uint64
	// onProcessed, when set, observes the processed count after each
	// executed event. Kept nil in normal runs so the hot loop pays one
	// predictable branch.
	onProcessed func(processed uint64)
}

// SetProcessedHook installs f to be called after every executed event with
// the cumulative processed count. Pass nil to remove. Observability layers
// use this to sample event-queue depth through Pending.
func (s *Simulator) SetProcessedHook(f func(processed uint64)) {
	s.onProcessed = f
}

// New returns a simulator positioned at time zero with no timelines.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time. During a dispatch this is the
// event's time.
func (s *Simulator) Now() float64 { return s.now }

// Processed reports how many events have been executed so far. Engines
// surface this through metrics.Result (and sweep-level RunStats) as the
// per-run simulated-event count.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending reports how many attached events the cursors have not yet
// replayed.
func (s *Simulator) Pending() int {
	n := 0
	for i := range s.streams {
		n += len(s.streams[i].events) - s.streams[i].cursor
	}
	return n
}

// ErrPastEvent is returned when a timeline starts before the current
// simulated time.
var ErrPastEvent = errors.New("eventsim: event scheduled in the past")

// ErrUnsorted is returned when a timeline's events are not sorted by
// non-decreasing time.
var ErrUnsorted = errors.New("eventsim: timeline not sorted by time")

// AttachTimeline installs a compiled timeline. Events must be sorted by
// non-decreasing Time, with the first event no earlier than the current
// simulated time. On equal times every event of this timeline runs after
// those of the timelines attached before it and before those attached
// after it; an empty timeline attaches nothing.
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
	s.streams = append(s.streams, timeline{events: events, dispatch: dispatch})
	return nil
}

// Stop makes Run return after the current dispatch completes. It is meant
// to be called from inside a dispatch.
func (s *Simulator) Stop() { s.stopped = true }

// Reset rewinds the simulator to time zero with no timelines so a worker
// can reuse it for the next run, keeping the stream list's capacity. The
// processed count restarts and the processed hook is cleared. Reset must
// not be called from inside a running dispatch.
func (s *Simulator) Reset() {
	if s.running {
		panic("eventsim: Reset during Run")
	}
	clear(s.streams)
	s.streams = s.streams[:0]
	s.now = 0
	s.processed = 0
	s.stopped = false
	s.onProcessed = nil
}

// Run executes events in time order until every timeline is exhausted, an
// event beyond `until` is reached (that event stays pending), or Stop is
// called. It returns the final simulated time, which is `until` when the
// horizon was reached.
func (s *Simulator) Run(until float64) (float64, error) {
	if s.running {
		return s.now, errors.New("eventsim: Run called re-entrantly")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()

	for !s.stopped {
		// Earliest head across attached timelines; the strict comparison
		// lets the first-attached of equal heads win. Scenario runs attach
		// at most a handful of streams, so a linear scan beats any index
		// structure here.
		var st *timeline
		var stTime float64
		for i := range s.streams {
			t := &s.streams[i]
			if t.cursor < len(t.events) && (st == nil || t.events[t.cursor].Time < stTime) {
				st, stTime = t, t.events[t.cursor].Time
			}
		}
		if st == nil {
			break
		}
		if stTime > until {
			s.now = until
			return s.now, nil
		}
		arg := st.events[st.cursor].Arg
		st.cursor++
		s.now = stTime
		s.processed++
		// The dispatch may attach a timeline, which can move s.streams:
		// st is not used after this call.
		st.dispatch(arg, s.now)
		if s.onProcessed != nil {
			s.onProcessed(s.processed)
		}
	}
	if s.now < until && !s.stopped {
		s.now = until
	}
	return s.now, nil
}
