package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"freshcache/internal/metrics"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter recorded")
	}
	g := r.Gauge("y")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge recorded")
	}
	r.MergeHist("z", metrics.NewHist(DepthBuckets()))
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatalf("nil registry snapshot non-empty: %+v", s)
	}

	var tr *RunTrace
	tr.Emit(Event{Kind: KindContactBegin})
	if tr.Seen() != 0 || tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil trace recorded")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil trace JSONL: %v %q", err, buf.String())
	}

	var o *Observer
	if o.Open("x", "s") != (Recording{}) {
		t.Fatal("nil observer handed out state")
	}
	o.Commit(Recording{})
	o.CellQueued(3)
	o.CellDone()
	o.CellFailed()
	o.CellSkipped()
	o.CellReplayed()
	if err := o.WriteJSONL(&buf); err != nil {
		t.Fatalf("nil observer JSONL: %v", err)
	}
	buf.Reset()
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil observer chrome: %v", err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil observer chrome not valid JSON: %v (%q)", err, buf.String())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve the shared handles inside the goroutine so handle
			// creation itself races too.
			c := r.Counter("c")
			g := r.Gauge("g")
			h := metrics.NewHist(DepthBuckets())
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 100))
			}
			r.MergeHist("h", h)
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	s := r.Snapshot().Histograms["h"]
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Total || s.Total != workers*per {
		t.Fatalf("snapshot counts sum %d, total %d", sum, s.Total)
	}
	// Sum of 8×(0..99 mod) = 8 × 10 × 4950.
	want := float64(workers) * 10 * 4950
	if s.Sum != want {
		t.Fatalf("snapshot sum = %v, want %v", s.Sum, want)
	}
}

// TestHistogramBuckets: a registry histogram takes its bounds from the
// first run merged into it, adds each later run's bucket counts, and
// snapshots a copy.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	for _, run := range [][]float64{{0.5, 1, 2}, {10, 99, 100, 1e6}} {
		h := metrics.NewHist([]float64{1, 10, 100})
		for _, v := range run {
			h.Observe(v)
		}
		r.MergeHist("h", h)
	}
	s := r.Snapshot().Histograms["h"]
	want := []uint64{2, 2, 2, 1} // <=1, <=10, <=100, overflow
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Total != 7 || s.Min != 0.5 || s.Max != 1e6 {
		t.Fatalf("total %d min %v max %v", s.Total, s.Min, s.Max)
	}
	s.Counts[0] = 99
	if got := r.Snapshot().Histograms["h"].Counts[0]; got != 2 {
		t.Fatalf("snapshot shares the registry's counts: bucket 0 = %d", got)
	}
}

func TestRunTraceSampling(t *testing.T) {
	tr := NewRunTrace("r", 3, 0)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{T: float64(i), Kind: KindGenerate, A: -1, B: -1, Item: -1, Ver: -1})
	}
	if tr.Seen() != 10 {
		t.Fatalf("seen = %d", tr.Seen())
	}
	if tr.Len() != 4 { // events 0, 3, 6, 9
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	for i, ev := range tr.Events() {
		if ev.T != float64(3*i) {
			t.Fatalf("sampled event %d at t=%v, want %v", i, ev.T, float64(3*i))
		}
	}
}

func TestRunTraceRingOverwrite(t *testing.T) {
	tr := NewRunTrace("r", 1, 4)
	for i := 0; i < 6; i++ {
		tr.Emit(Event{T: float64(i), A: -1, B: -1, Item: -1, Ver: -1})
	}
	if tr.Len() != 4 || tr.Seen() != 6 || tr.Dropped() != 2 {
		t.Fatalf("len=%d seen=%d dropped=%d", tr.Len(), tr.Seen(), tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if ev.T != float64(i+2) { // oldest two overwritten
			t.Fatalf("ring event %d at t=%v, want %v", i, ev.T, float64(i+2))
		}
	}
}

func TestJSONLBytes(t *testing.T) {
	tr := NewRunTrace("E2/reality-like/p00/hierarchical/r0", 1, 0)
	tr.Emit(Event{T: 1.5, Kind: KindContactBegin, A: 3, B: 7, Item: -1, Ver: -1, Val: 120})
	tr.Emit(Event{T: 2, Kind: KindCacheMiss, A: 4, B: -1, Item: 1, Ver: -1})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"run":"E2/reality-like/p00/hierarchical/r0","t":1.5,"kind":"contact_begin","a":3,"b":7,"val":120}
{"run":"E2/reality-like/p00/hierarchical/r0","t":2,"kind":"cache_miss","a":4,"item":1}
`
	if buf.String() != want {
		t.Fatalf("JSONL bytes:\n got %q\nwant %q", buf.String(), want)
	}
	// Every line must also be standalone valid JSON.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if kindFromString(m["kind"].(string)) == KindUnknown {
			t.Fatalf("line %q has unknown kind", line)
		}
	}
}

func TestKindRoundTrip(t *testing.T) {
	for k := KindUnknown + 1; k < kindCount; k++ {
		if got := kindFromString(k.String()); got != k {
			t.Fatalf("kind %d (%s) round-tripped to %d", k, k, got)
		}
	}
	// The event and Chrome writers put kind names between quotes as they
	// are, which holds only while no name needs a JSON escape.
	for k := KindUnknown; k < kindCount; k++ {
		if got, want := string(appendJSONString(nil, k.String())), `"`+k.String()+`"`; got != want {
			t.Fatalf("kind name %s quotes as %s, not %s", k, got, want)
		}
	}
	if kindFromString("no_such_kind") != KindUnknown {
		t.Fatal("bad name resolved")
	}
}

func TestObserverFlushOrderAndDeterminism(t *testing.T) {
	build := func(commitOrder []string) ([]byte, []byte) {
		o := NewObserver(Config{})
		byLabel := make(map[string]Recording)
		for _, label := range []string{"a", "b", "c"} {
			rec := o.Open(label, "s")
			rec.Trace.Emit(Event{T: 1, Kind: KindContactBegin, A: 0, B: 1, Item: -1, Ver: -1, Val: 10})
			rec.Trace.Emit(Event{T: 11, Kind: KindContactEnd, A: 0, B: 1, Item: -1, Ver: -1})
			byLabel[label] = rec
		}
		for _, label := range commitOrder {
			o.Commit(byLabel[label])
		}
		var jl, ct bytes.Buffer
		if err := o.WriteJSONL(&jl); err != nil {
			t.Fatal(err)
		}
		if err := o.WriteChromeTrace(&ct); err != nil {
			t.Fatal(err)
		}
		return jl.Bytes(), ct.Bytes()
	}
	jl1, ct1 := build([]string{"a", "b", "c"})
	jl2, ct2 := build([]string{"c", "a", "b"}) // a different worker interleaving
	if !bytes.Equal(jl1, jl2) {
		t.Fatalf("JSONL depends on commit order:\n%q\n%q", jl1, jl2)
	}
	if !bytes.Equal(ct1, ct2) {
		t.Fatalf("Chrome trace depends on commit order:\n%q\n%q", ct1, ct2)
	}
}

func TestObserverConcurrent(t *testing.T) {
	o := NewObserver(Config{SampleEvery: 2})
	const runs = 16
	o.CellQueued(runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := o.Open(string(rune('a'+i)), "scheme")
			for j := 0; j < 100; j++ {
				rec.Trace.Emit(Event{T: float64(j), Kind: KindGenerate, A: -1, B: -1, Item: -1, Ver: -1})
			}
			o.Commit(rec)
			o.CellDone()
		}()
	}
	wg.Wait()
	st := o.Stats()
	if st.Runs != runs || st.Seen != runs*100 || st.Buffered != runs*50 {
		t.Fatalf("stats: %+v", st)
	}
	reg := o.Metrics
	if reg.Counter("sweep/cells_done").Value() != runs {
		t.Fatalf("cells_done = %d", reg.Counter("sweep/cells_done").Value())
	}
	if reg.Gauge("sweep/queue_depth").Value() != 0 {
		t.Fatalf("queue depth = %v", reg.Gauge("sweep/queue_depth").Value())
	}
}

// TestObserverCellDispositions: every cell disposition lands in its own
// counter and all four drain the queue-depth gauge — a skipped or failed
// cell is not "done", but it is no longer queued either.
func TestObserverCellDispositions(t *testing.T) {
	o := NewObserver(Config{})
	o.CellQueued(10)
	for i := 0; i < 3; i++ {
		o.CellDone()
	}
	for i := 0; i < 2; i++ {
		o.CellReplayed()
	}
	o.CellFailed()
	o.CellSkipped()
	reg := o.Metrics
	for name, want := range map[string]int64{
		"sweep/cells_done":     3,
		"sweep/cells_replayed": 2,
		"sweep/cells_failed":   1,
		"sweep/cells_skipped":  1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("sweep/queue_depth").Value(); got != 3 {
		t.Fatalf("queue depth = %v, want 3 (10 queued − 7 settled)", got)
	}
}

// chromeEvent is the schema every Chrome trace event must satisfy.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   *float64       `json:"ts"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	Dur  *float64       `json:"dur"`
	Args map[string]any `json:"args"`
}

func TestChromeTraceSchema(t *testing.T) {
	o := NewObserver(Config{})
	rec := o.Open("E2/x/p00/hier/r0", "hierarchical")
	tr := rec.Trace
	tr.Emit(Event{T: 5, Kind: KindContactBegin, A: 1, B: 2, Item: -1, Ver: -1, Val: 30})
	tr.Emit(Event{T: 6, Kind: KindRefreshDelivered, A: 1, B: 4, Item: 0, Ver: 2, Val: 12})
	tr.Emit(Event{T: 35, Kind: KindContactEnd, A: 1, B: 2, Item: -1, Ver: -1})
	tr.Emit(Event{T: 40, Kind: KindCacheHit, A: 9, B: 4, Item: 0, Ver: 2, Val: 7})
	o.Commit(rec)

	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v\n%s", err, buf.String())
	}
	// process_name metadata + contact slice + 2 instants (contact_end is
	// folded into the begin slice's duration).
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("event count = %d: %s", len(doc.TraceEvents), buf.String())
	}
	var slices, instants, metas int
	for _, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event missing required keys: %+v", ev)
		}
		switch ev.Ph {
		case "X":
			slices++
			if ev.Dur == nil || *ev.Dur != 30e6 || *ev.Ts != 5e6 {
				t.Fatalf("contact slice wrong: %+v", ev)
			}
		case "i":
			instants++
			if kindFromString(ev.Name) == KindUnknown {
				t.Fatalf("instant with unknown kind name: %+v", ev)
			}
		case "M":
			metas++
			if ev.Args["name"] != "E2/x/p00/hier/r0" {
				t.Fatalf("process_name args: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if slices != 1 || instants != 2 || metas != 1 {
		t.Fatalf("phases: X=%d i=%d M=%d", slices, instants, metas)
	}
}

func TestManifestWriteRead(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest("experiments")
	m.Command = []string{"experiments", "-quick"}
	m.Seed = 42
	m.Config = map[string]any{"quick": true}
	m.Outputs = []string{"out/e2_0.csv"}
	m.FinishResources(time.Now().Add(-time.Second))
	path := filepath.Join(dir, "manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if got.Schema != ManifestSchema || got.Tool != "experiments" || got.Seed != 42 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.GoVersion == "" || got.OS == "" || got.Arch == "" || got.GOMAXPROCS < 1 {
		t.Fatalf("provenance missing: %+v", got)
	}
	if got.WallClockSeconds < 0.9 {
		t.Fatalf("wall clock = %v", got.WallClockSeconds)
	}
}

// kindFromString resolves a wire name back to its Kind (KindUnknown for
// unrecognised names).
func kindFromString(s string) Kind {
	for k, name := range kindNames {
		if name == s {
			return Kind(k)
		}
	}
	return KindUnknown
}
