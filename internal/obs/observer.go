package obs

import (
	"io"
	"sort"
	"sync"
)

// Config controls trace collection for an Observer's runs.
type Config struct {
	// SampleEvery keeps one event in every SampleEvery emitted (1 = keep
	// all). Raise it for million-contact runs.
	SampleEvery int
	// BufferCap bounds the per-run ring buffer (DefaultBufferCap if 0).
	BufferCap int
	// Lineage gives each run a causal span collector, holding up to
	// DefaultLineageCap spans.
	Lineage bool
	// TimelineTick gives each run a simulated-time telemetry sampler on the
	// given sim-time period in seconds; 0 disables it and a negative value
	// asks the engine to pick a default tick. The sampler holds up to
	// DefaultTimelineCap points.
	TimelineTick float64
}

// Observer is the sweep/experiment-level sink: it hands out one Recording
// per run and collects the committed ones. All methods are safe for
// concurrent use and no-ops on a nil receiver, so `-obs` off means passing
// nil around.
//
// Determinism contract: each run writes only to its own Recording (no
// cross-run interleaving), and flushes order committed runs by label with
// commit order inside one label preserved. Output bytes therefore do not
// depend on how many sweep workers ran, only on the set of runs.
type Observer struct {
	cfg Config
	// Metrics is the process-wide registry every Recording the observer
	// opens shares; the CLIs snapshot it into metrics.om and the manifest.
	Metrics *Registry

	mu   sync.Mutex
	runs []Recording
}

// Recording is one run's collectors, handed out by Observer.Open and
// handed back through Observer.Commit. Lineage and Timeline are nil unless
// the observer's Config asks for them, and every field is zero for a nil
// observer; the engine treats nil collectors as off.
type Recording struct {
	Label    string
	Trace    *RunTrace
	Metrics  *Registry
	Lineage  *Lineage
	Timeline *Timeline
	// TimelineTick is Timeline's sampling period in simulated seconds
	// (negative = engine default).
	TimelineTick float64
}

// The refresh facts. Each method records one fact of the protocol, its
// event into Trace and its span into Lineage, so the two views count the
// same facts; a nil collector skips its half, and a span method returns 0
// when Lineage is nil or full. A new fact gets a method here, never a
// second call site.

// Generate records source generating version ver of item: a generate
// event and the version's root span, which Root returns from then on.
func (r *Recording) Generate(t float64, source, item, ver int32) SpanID {
	if r.Trace != nil {
		r.Trace.Emit(Event{T: t, Kind: KindGenerate, A: source, B: -1, Item: item, Ver: ver})
	}
	return r.Lineage.generate(t, item, ver, source)
}

// Duty records node taking refreshing duty for version ver of item toward
// dests children: a refresh_scheduled event and a duty span.
func (r *Recording) Duty(t float64, parent SpanID, node, item, ver int32, dests int) SpanID {
	if r.Trace != nil {
		r.Trace.Emit(Event{T: t, Kind: KindRefreshScheduled, A: node, B: -1, Item: item, Ver: ver, Val: float64(dests)})
	}
	return r.Lineage.add(Span{Parent: parent, Kind: SpanDuty, T: t, From: node, To: -1, Item: item, Ver: ver})
}

// Planned records the replication planner tasking holder to carry version
// ver of item toward dest with the achieved probability prob: a
// replication_planned event, and no span.
func (r *Recording) Planned(t float64, holder, dest, item, ver int32, prob float64) {
	if r.Trace != nil {
		r.Trace.Emit(Event{T: t, Kind: KindReplicationPlanned, A: holder, B: dest, Item: item, Ver: ver, Val: prob})
	}
}

// Handoff records a copy of version ver of item moving from carrier from
// to carrier to without reaching a cache: a relay_handoff event and a
// handoff span.
func (r *Recording) Handoff(t float64, parent SpanID, from, to, item, ver int32) SpanID {
	if r.Trace != nil {
		r.Trace.Emit(Event{T: t, Kind: KindRelayHandoff, A: from, B: to, Item: item, Ver: ver})
	}
	return r.Lineage.add(Span{Parent: parent, Kind: SpanHandoff, T: t, From: from, To: to, Item: item, Ver: ver})
}

// Delivered records a caching node's store accepting version ver of item
// from node from, age seconds after its generation: a refresh_delivered
// event, which names no giver, and a delivery span, which does.
func (r *Recording) Delivered(t float64, parent SpanID, from, to, item, ver int32, age float64) SpanID {
	if r.Trace != nil {
		r.Trace.Emit(Event{T: t, Kind: KindRefreshDelivered, A: -1, B: to, Item: item, Ver: ver, Val: age})
	}
	return r.Lineage.add(Span{Parent: parent, Kind: SpanDelivery, T: t, From: from, To: to, Item: item, Ver: ver, Age: age})
}

// Reassign records a rebuild handing refreshing duty for item to node: a
// duty_reassigned event and a reassign span under the item's newest
// generation, which shows whose duty chain the rebuild interrupted. It
// concerns the item's duty, not one version, so both carry version -1.
func (r *Recording) Reassign(t float64, node, item int32) SpanID {
	if r.Trace != nil {
		r.Trace.Emit(Event{T: t, Kind: KindDutyReassigned, A: node, B: -1, Item: item, Ver: -1})
	}
	return r.Lineage.add(Span{Parent: r.Lineage.latestRoot(item), Kind: SpanReassign, T: t, From: node, To: -1, Item: item, Ver: -1})
}

// Root returns the generate span of version ver of item (0 if none was
// recorded), the parent a scheme gives the spans it records for that
// version.
func (r *Recording) Root(item, ver int32) SpanID { return r.Lineage.root(item, ver) }

// NewObserver returns an observer with the given trace config and a fresh
// registry.
func NewObserver(cfg Config) *Observer {
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	if cfg.BufferCap < 1 {
		cfg.BufferCap = DefaultBufferCap
	}
	return &Observer{cfg: cfg, Metrics: NewRegistry()}
}

// Open returns fresh collectors for one labelled run of the named scheme.
// The caller owns them until Commit.
func (o *Observer) Open(label, scheme string) Recording {
	if o == nil {
		return Recording{}
	}
	rec := Recording{
		Label:   label,
		Trace:   NewRunTrace(label, o.cfg.SampleEvery, o.cfg.BufferCap),
		Metrics: o.Metrics,
	}
	if o.cfg.Lineage {
		rec.Lineage = NewLineage(label, scheme, 0)
	}
	if o.cfg.TimelineTick != 0 {
		rec.Timeline = NewTimeline(label, 0)
		rec.TimelineTick = o.cfg.TimelineTick
	}
	return rec
}

// Commit hands a finished run's collectors back to the observer, where
// they join the exports. Failed runs are not committed, so exports carry
// completed runs only.
func (o *Observer) Commit(rec Recording) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.runs = append(o.runs, rec)
}

// sortedRuns returns the committed runs ordered by label (stable, so
// several commits under one label keep commit order; labels are unique
// within a sweep, where they are the cell's grid coordinates).
func (o *Observer) sortedRuns() []Recording {
	o.mu.Lock()
	runs := make([]Recording, len(o.runs))
	copy(runs, o.runs)
	o.mu.Unlock()
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Label < runs[j].Label })
	return runs
}

// EventStats sums trace, lineage and timeline volume across committed
// runs.
type EventStats struct {
	Runs     int    `json:"runs"`
	Seen     uint64 `json:"eventsSeen"`
	Buffered uint64 `json:"eventsBuffered"`
	Dropped  uint64 `json:"eventsDropped"`
	// Lineage span volume (0 unless -lineage was on).
	Spans        uint64 `json:"spans,omitempty"`
	SpansDropped uint64 `json:"spansDropped,omitempty"`
	// Timeline point volume (0 unless -timeline-tick was on).
	TimelinePoints  uint64 `json:"timelinePoints,omitempty"`
	TimelineDropped uint64 `json:"timelineDropped,omitempty"`
}

// Stats reports the committed trace volume.
func (o *Observer) Stats() EventStats {
	var s EventStats
	if o == nil {
		return s
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, r := range o.runs {
		s.Runs++
		s.Seen += r.Trace.Seen()
		s.Buffered += uint64(r.Trace.Len())
		s.Dropped += r.Trace.Dropped()
		s.Spans += uint64(r.Lineage.Len())
		s.SpansDropped += r.Lineage.Dropped()
		s.TimelinePoints += uint64(r.Timeline.Len())
		s.TimelineDropped += r.Timeline.Dropped()
	}
	return s
}

// WriteJSONL flushes every committed trace as JSON Lines, runs in sorted
// label order, events in emission order within a run.
func (o *Observer) WriteJSONL(w io.Writer) error {
	if o == nil {
		return nil
	}
	for _, r := range o.sortedRuns() {
		if err := r.Trace.WriteJSONL(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeTrace flushes every committed trace as one Chrome trace-event
// JSON document (one pid per run, sorted label order).
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	if o == nil {
		return writeChromeTraces(w, nil)
	}
	runs := o.sortedRuns()
	traces := make([]*RunTrace, len(runs))
	for i, r := range runs {
		traces[i] = r.Trace
	}
	return writeChromeTraces(w, traces)
}

// WriteLineageJSONL flushes every committed lineage as JSON Lines, runs in
// sorted label order, spans in creation order within a run — the same
// determinism contract as WriteJSONL.
func (o *Observer) WriteLineageJSONL(w io.Writer) error {
	if o == nil {
		return nil
	}
	for _, r := range o.sortedRuns() {
		if err := r.Lineage.WriteJSONL(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteTimelineCSV flushes every committed timeline as one CSV document
// (single header, runs in sorted label order, points in sampling order
// within a run).
func (o *Observer) WriteTimelineCSV(w io.Writer) error {
	if o == nil {
		return nil
	}
	if _, err := io.WriteString(w, TimelineCSVHeader+"\n"); err != nil {
		return err
	}
	for _, r := range o.sortedRuns() {
		if err := r.Timeline.WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}
