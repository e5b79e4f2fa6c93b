package obs

import (
	"io"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// RunTrace collects the typed events of one simulation run into a bounded
// ring buffer. A run's collectors are written only by the goroutine that
// runs it, and are read concurrently only while they are exported (the
// block writer formats records on several workers), so RunTrace does no
// locking; determinism across `-parallel` settings comes from keeping one
// trace per run and flushing traces in sorted label order (see Observer).
//
// Sampling: with SampleEvery = n, only every n-th event (per trace, in
// emission order) is kept. With a full ring, the oldest sampled events are
// overwritten; Seen/Dropped expose how much was discarded either way. A
// nil *RunTrace ignores Emit, so instrumentation sites need no guards
// beyond the single nil check Emit itself performs.
type RunTrace struct {
	Label string

	sampleEvery int
	buf         []Event
	start       int // index of oldest event
	count       int // events currently buffered
	seen        uint64
	sampled     uint64
}

// DefaultBufferCap is the per-run ring capacity used when none is given.
const DefaultBufferCap = 1 << 16

// NewRunTrace returns a trace labelled label keeping every sampleEvery-th
// event in a ring of bufferCap events. sampleEvery < 1 is treated as 1
// (keep everything); bufferCap < 1 selects DefaultBufferCap.
func NewRunTrace(label string, sampleEvery, bufferCap int) *RunTrace {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	if bufferCap < 1 {
		bufferCap = DefaultBufferCap
	}
	return &RunTrace{Label: label, sampleEvery: sampleEvery, buf: make([]Event, 0, bufferCap)}
}

// Emit records ev subject to sampling; no-op on a nil trace.
func (t *RunTrace) Emit(ev Event) {
	if t == nil {
		return
	}
	t.seen++
	if t.sampleEvery > 1 && (t.seen-1)%uint64(t.sampleEvery) != 0 {
		return
	}
	t.sampled++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
		t.count++
		return
	}
	// Ring is full: overwrite the oldest slot.
	t.buf[t.start] = ev
	t.start = (t.start + 1) % len(t.buf)
}

// Seen returns how many events were emitted at this trace (before
// sampling).
func (t *RunTrace) Seen() uint64 {
	if t == nil {
		return 0
	}
	return t.seen
}

// Dropped returns how many emitted events were discarded by sampling or
// ring overwrite.
func (t *RunTrace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.seen - uint64(t.count)
}

// Len returns the number of buffered events.
func (t *RunTrace) Len() int {
	if t == nil {
		return 0
	}
	return t.count
}

// Events returns the buffered events in emission order (oldest first).
func (t *RunTrace) Events() []Event {
	if t == nil || t.count == 0 {
		return nil
	}
	out := make([]Event, 0, t.count)
	for i := 0; i < t.count; i++ {
		out = append(out, t.buf[(t.start+i)%len(t.buf)])
	}
	return out
}

// appendJSONString appends s as a JSON string, the one quoting every
// export uses for labels and names. A printable character is written as
// it is, and a quote or backslash escaped, exactly as strconv.Quote writes
// them; any other character becomes a \u escape, which strconv.Quote
// would write in Go syntax (\x01) and JSON does not allow. Invalid UTF-8
// is written as U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(slices.Grow(dst, len(s)+2), '"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\':
			dst = append(dst, '\\', byte(r))
		case strconv.IsPrint(r):
			dst = utf8.AppendRune(dst, r)
		case r > 0xffff:
			hi, lo := utf16.EncodeRune(r)
			dst = appendUnicodeEscape(appendUnicodeEscape(dst, hi), lo)
		default:
			dst = appendUnicodeEscape(dst, r)
		}
	}
	return append(dst, '"')
}

// appendUnicodeEscape appends the JSON escape \uXXXX of a UTF-16 code unit.
func appendUnicodeEscape(dst []byte, r rune) []byte {
	const hex = "0123456789abcdef"
	return append(dst, '\\', 'u', hex[r>>12&0xf], hex[r>>8&0xf], hex[r>>4&0xf], hex[r&0xf])
}

// appendJSONL appends one event as a JSONL record after head, the
// record's opening `{"run":<label>`, which the writer quotes once for all
// of a run's lines. Hand-rolled so that float formatting (strconv 'g',
// shortest round-trip) and field order are fixed — byte determinism is
// part of the trace contract.
func appendJSONL(dst, head []byte, ev Event) []byte {
	dst = append(dst, head...)
	dst = append(dst, `,"t":`...)
	dst = strconv.AppendFloat(dst, ev.T, 'g', -1, 64)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, ev.Kind.String()...)
	dst = append(dst, '"')
	if ev.A >= 0 {
		dst = append(dst, `,"a":`...)
		dst = strconv.AppendInt(dst, int64(ev.A), 10)
	}
	if ev.B >= 0 {
		dst = append(dst, `,"b":`...)
		dst = strconv.AppendInt(dst, int64(ev.B), 10)
	}
	if ev.Item >= 0 {
		dst = append(dst, `,"item":`...)
		dst = strconv.AppendInt(dst, int64(ev.Item), 10)
	}
	if ev.Ver >= 0 {
		dst = append(dst, `,"ver":`...)
		dst = strconv.AppendInt(dst, int64(ev.Ver), 10)
	}
	if ev.Val != 0 {
		dst = append(dst, `,"val":`...)
		dst = strconv.AppendFloat(dst, ev.Val, 'g', -1, 64)
	}
	dst = append(dst, '}', '\n')
	return dst
}

// WriteJSONL writes the buffered events as JSON Lines, one event per line,
// in emission order.
func (t *RunTrace) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	head := appendJSONString([]byte(`{"run":`), t.Label)
	return writeRecords(w, t.count, func(dst []byte, i int) []byte {
		return appendJSONL(dst, head, t.buf[(t.start+i)%len(t.buf)])
	})
}
