package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// SpanID identifies one lineage span within one run. IDs are assigned
// densely starting at 1 in creation order; 0 means "no span" and is what
// nil-safe helpers return when lineage is off.
type SpanID uint32

// SpanKind classifies what step of a refresh message's life a span records.
type SpanKind uint8

const (
	// SpanGenerate is the root of every lineage tree: a source generating
	// a new version of an item.
	SpanGenerate SpanKind = iota
	// SpanDuty marks a node assuming refreshing duty for an item-version
	// (becoming part of the distributed duty tree).
	SpanDuty
	// SpanHandoff marks a refresh message being handed to a carrier for
	// forwarding: a planned relay, an epidemic carrier or a spray token
	// holder (the message is in flight, not yet applied at a cache).
	SpanHandoff
	// SpanDelivery marks a version arriving at a caching node's store.
	SpanDelivery
	// SpanReassign marks a duty reassignment: the responsible-set rebuild
	// moved refreshing duty for an item between nodes.
	SpanReassign
)

var spanKindNames = [...]string{"generate", "duty", "handoff", "delivery", "reassign"}

// String returns the stable wire name of the kind.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "unknown"
}

// SpanKindFromString inverts String; ok is false for unknown names.
func SpanKindFromString(s string) (SpanKind, bool) {
	for i, n := range spanKindNames {
		if n == s {
			return SpanKind(i), true
		}
	}
	return 0, false
}

// Span is one step in a refresh message's causal history. From/To are node
// IDs with -1 meaning "not applicable" (e.g. a generate span has no To).
// Age carries a kind-specific scalar: for deliveries it is the version age
// at arrival (seconds since generation); zero elsewhere.
type Span struct {
	ID     SpanID
	Parent SpanID
	Kind   SpanKind
	T      float64
	From   int32
	To     int32
	Item   int32
	Ver    int32
	Age    float64
}

// Lineage collects the causal span tree of one run. Spans are written
// only through a Recording's fact methods, together with their events.
// Like RunTrace it is written only by its run's goroutine, and it is
// nil-safe: every method no-ops (returning SpanID 0 where applicable) on a
// nil receiver, so the lineage-off path costs one branch.
//
// Capacity: at most cap spans are kept. Once full, new spans are counted
// in Dropped but not stored — drop-new (rather than ring-overwrite)
// semantics keep the invariant that a stored span's parent is also stored.
type Lineage struct {
	Label  string
	Scheme string

	cap     int
	spans   []Span
	dropped uint64

	// roots maps (item, version) to the generate span, so scheme code can
	// parent its spans without threading IDs through every call.
	roots map[rootKey]SpanID
	// latest maps item to the generate span of its newest version.
	latest map[int32]SpanID
}

type rootKey struct {
	item int32
	ver  int32
}

// DefaultLineageCap bounds per-run span storage when no cap is given.
const DefaultLineageCap = 1 << 17

// NewLineage returns a lineage collector for one labelled run. capSpans < 1
// selects DefaultLineageCap.
func NewLineage(label, scheme string, capSpans int) *Lineage {
	if capSpans < 1 {
		capSpans = DefaultLineageCap
	}
	return &Lineage{
		Label:  label,
		Scheme: scheme,
		cap:    capSpans,
		roots:  make(map[rootKey]SpanID),
		latest: make(map[int32]SpanID),
	}
}

// add stores a span and returns its ID, or 0 on a nil lineage or once
// the cap is reached.
func (l *Lineage) add(s Span) SpanID {
	if l == nil {
		return 0
	}
	if len(l.spans) >= l.cap {
		l.dropped++
		return 0
	}
	s.ID = SpanID(len(l.spans) + 1)
	l.spans = append(l.spans, s)
	return s.ID
}

// generate records the root span of a new (item, version) tree: source
// generated version ver of item at time t.
func (l *Lineage) generate(t float64, item, ver int32, source int32) SpanID {
	id := l.add(Span{Kind: SpanGenerate, T: t, From: source, To: -1, Item: item, Ver: ver})
	if id != 0 {
		l.roots[rootKey{item, ver}] = id
		l.latest[item] = id
	}
	return id
}

// root returns the generate span of (item, ver), or 0 if none was recorded.
func (l *Lineage) root(item, ver int32) SpanID {
	if l == nil {
		return 0
	}
	return l.roots[rootKey{item, ver}]
}

// latestRoot returns the generate span of item's newest recorded version.
func (l *Lineage) latestRoot(item int32) SpanID {
	if l == nil {
		return 0
	}
	return l.latest[item]
}

// Len returns the number of stored spans.
func (l *Lineage) Len() int {
	if l == nil {
		return 0
	}
	return len(l.spans)
}

// Dropped returns how many spans were discarded at the cap.
func (l *Lineage) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Spans returns the stored spans in creation order (IDs ascending).
func (l *Lineage) Spans() []Span {
	if l == nil {
		return nil
	}
	out := make([]Span, len(l.spans))
	copy(out, l.spans)
	return out
}

// spanHead returns the opening every span record of a run shares: its
// quoted label and scheme, quoted once per run instead of once per span.
func spanHead(label, scheme string) []byte {
	head := appendJSONString([]byte(`{"run":`), label)
	head = append(head, `,"scheme":`...)
	return appendJSONString(head, scheme)
}

// appendSpanJSONL appends one span as a JSONL record after head (see
// spanHead). Hand-rolled like appendJSONL: fixed field order and
// shortest-round-trip floats keep the export byte-deterministic.
func appendSpanJSONL(dst, head []byte, s Span) []byte {
	dst = append(dst, head...)
	dst = append(dst, `,"span":`...)
	dst = strconv.AppendUint(dst, uint64(s.ID), 10)
	if s.Parent != 0 {
		dst = append(dst, `,"parent":`...)
		dst = strconv.AppendUint(dst, uint64(s.Parent), 10)
	}
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, s.Kind.String()...)
	dst = append(dst, '"')
	dst = append(dst, `,"t":`...)
	dst = strconv.AppendFloat(dst, s.T, 'g', -1, 64)
	if s.From >= 0 {
		dst = append(dst, `,"from":`...)
		dst = strconv.AppendInt(dst, int64(s.From), 10)
	}
	if s.To >= 0 {
		dst = append(dst, `,"to":`...)
		dst = strconv.AppendInt(dst, int64(s.To), 10)
	}
	if s.Item >= 0 {
		dst = append(dst, `,"item":`...)
		dst = strconv.AppendInt(dst, int64(s.Item), 10)
	}
	if s.Ver >= 0 {
		dst = append(dst, `,"ver":`...)
		dst = strconv.AppendInt(dst, int64(s.Ver), 10)
	}
	if s.Age != 0 {
		dst = append(dst, `,"age":`...)
		dst = strconv.AppendFloat(dst, s.Age, 'g', -1, 64)
	}
	dst = append(dst, '}', '\n')
	return dst
}

// WriteJSONL writes the spans as JSON Lines in creation order.
func (l *Lineage) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	head := spanHead(l.Label, l.Scheme)
	return writeRecords(w, len(l.spans), func(dst []byte, i int) []byte {
		return appendSpanJSONL(dst, head, l.spans[i])
	})
}

// SpanRecord is one parsed lineage line, as read back by report tooling.
type SpanRecord struct {
	Run    string
	Scheme string
	Span
}

// spanLine is the wire form of one lineage line.
type spanLine struct {
	Run    string  `json:"run"`
	Scheme string  `json:"scheme"`
	Span   SpanID  `json:"span"`
	Parent SpanID  `json:"parent"`
	Kind   string  `json:"kind"`
	T      float64 `json:"t"`
	From   int32   `json:"from"`
	To     int32   `json:"to"`
	Item   int32   `json:"item"`
	Ver    int32   `json:"ver"`
	Age    float64 `json:"age"`
}

// ReadSpansJSONL parses a lineage JSONL stream written by WriteJSONL. It
// is strict: each non-empty line must hold exactly one JSON object with no
// unknown field, a known span kind and a span id above 0, so JSON's own
// grammar rejects NaN, infinities and Go-only number forms. Keys match
// without regard to case, as encoding/json matches them: "Run" reads as
// "run".
func ReadSpansJSONL(r io.Reader) ([]SpanRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []SpanRecord
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec, err := parseSpanLine(line)
		if err != nil {
			return nil, fmt.Errorf("lineage line %d: %w", lineNo, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseSpanLine decodes one span record emitted by appendSpanJSONL. The
// writer omits a zero parent or age and a negative node, item or version,
// so those fields start at their omitted values.
func parseSpanLine(line []byte) (SpanRecord, error) {
	w := spanLine{From: -1, To: -1, Item: -1, Ver: -1}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return SpanRecord{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return SpanRecord{}, errors.New("more than one JSON value")
	}
	kind, ok := SpanKindFromString(w.Kind)
	switch {
	case !ok:
		return SpanRecord{}, fmt.Errorf("unknown span kind %q", w.Kind)
	case w.Span == 0:
		return SpanRecord{}, errors.New("missing span id")
	case min(w.From, w.To, w.Item, w.Ver) < -1:
		return SpanRecord{}, errors.New("node, item or version below -1")
	}
	if w.Age == 0 {
		w.Age = 0 // a -0 age is written as no age, which reads back as 0
	}
	return SpanRecord{Run: w.Run, Scheme: w.Scheme, Span: Span{
		ID: w.Span, Parent: w.Parent, Kind: kind, T: w.T,
		From: w.From, To: w.To, Item: w.Item, Ver: w.Ver, Age: w.Age,
	}}, nil
}

// SpanTree indexes one run's spans for traversal: children in creation
// order per parent, roots (parentless spans) in creation order.
type SpanTree struct {
	ByID     map[SpanID]SpanRecord
	Children map[SpanID][]SpanID
	Roots    []SpanID
}

// BuildSpanTree indexes records (typically one run's worth) into a tree.
func BuildSpanTree(records []SpanRecord) *SpanTree {
	tr := &SpanTree{
		ByID:     make(map[SpanID]SpanRecord, len(records)),
		Children: make(map[SpanID][]SpanID),
	}
	for _, r := range records {
		tr.ByID[r.ID] = r
		if r.Parent == 0 {
			tr.Roots = append(tr.Roots, r.ID)
		} else {
			tr.Children[r.Parent] = append(tr.Children[r.Parent], r.ID)
		}
	}
	sort.Slice(tr.Roots, func(i, j int) bool { return tr.Roots[i] < tr.Roots[j] })
	for _, kids := range tr.Children {
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
	}
	return tr
}

// Depth returns the number of edges from id up to its root. Unknown or
// orphaned parents terminate the walk (the dangling edge still counts, so
// a span whose parent was dropped at the cap reports depth ≥ 1).
func (tr *SpanTree) Depth(id SpanID) int {
	depth := 0
	for {
		r, ok := tr.ByID[id]
		if !ok || r.Parent == 0 {
			return depth
		}
		depth++
		id = r.Parent
		if depth > len(tr.ByID) { // cycle guard; cannot happen for writer output
			return depth
		}
	}
}
