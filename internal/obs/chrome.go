package obs

import (
	"io"
	"strconv"
)

// Chrome trace-event export: the JSON object format understood by
// Perfetto and chrome://tracing ({"traceEvents":[...]}). Each run becomes
// one "process" (pid = run index in sorted-label order, named by a
// process_name metadata event); each node becomes a "thread" (tid) inside
// it. Contacts render as complete ("X") slices spanning their duration;
// every other event kind renders as a thread-scoped instant ("i").
// Timestamps are microseconds, matching the format's convention.

// appendChromeCommon appends a record's common fields. name is a kind's
// wire name or "process_name": a code constant that needs no JSON escape,
// written as it is between quotes, as appendJSONL writes kinds.
func appendChromeCommon(dst []byte, name string, ph byte, tsMicros float64, pid, tid int) []byte {
	dst = append(dst, `{"name":"`...)
	dst = append(dst, name...)
	dst = append(dst, `","ph":"`...)
	dst = append(dst, ph)
	dst = append(dst, `","ts":`...)
	dst = strconv.AppendFloat(dst, tsMicros, 'g', -1, 64)
	dst = append(dst, `,"pid":`...)
	dst = strconv.AppendInt(dst, int64(pid), 10)
	dst = append(dst, `,"tid":`...)
	dst = strconv.AppendInt(dst, int64(tid), 10)
	return dst
}

// appendChromeEvent appends one event, preceded by the separator from
// the record before it (the run's process_name record at least).
func appendChromeEvent(dst []byte, ev Event, pid int) []byte {
	if ev.Kind == KindContactEnd {
		// The matching contact_begin carries the duration; a separate end
		// slice would double-draw the contact.
		return dst
	}
	dst = append(dst, ',', '\n')
	tid := 0
	if ev.A >= 0 {
		tid = int(ev.A)
	}
	ts := ev.T * 1e6
	if ev.Kind == KindContactBegin {
		dst = appendChromeCommon(dst, ev.Kind.String(), 'X', ts, pid, tid)
		dst = append(dst, `,"dur":`...)
		dst = strconv.AppendFloat(dst, ev.Val*1e6, 'g', -1, 64)
	} else {
		dst = appendChromeCommon(dst, ev.Kind.String(), 'i', ts, pid, tid)
		dst = append(dst, `,"s":"t"`...)
	}
	dst = append(dst, `,"args":{`...)
	comma := false
	arg := func(k string, v int64) {
		if comma {
			dst = append(dst, ',')
		}
		comma = true
		dst = append(dst, '"')
		dst = append(dst, k...)
		dst = append(dst, `":`...)
		dst = strconv.AppendInt(dst, v, 10)
	}
	if ev.B >= 0 {
		arg("peer", int64(ev.B))
	}
	if ev.Item >= 0 {
		arg("item", int64(ev.Item))
	}
	if ev.Ver >= 0 {
		arg("ver", int64(ev.Ver))
	}
	if ev.Val != 0 && ev.Kind != KindContactBegin {
		if comma {
			dst = append(dst, ',')
		}
		comma = true
		dst = append(dst, `"val":`...)
		dst = strconv.AppendFloat(dst, ev.Val, 'g', -1, 64)
	}
	dst = append(dst, '}', '}')
	return dst
}

// writeChromeTraces serializes the given run traces (already in the
// desired pid order) as one Chrome trace-event JSON document: each run's
// process_name record, then its events through writeRecords, walking each
// ring in place.
func writeChromeTraces(w io.Writer, traces []*RunTrace) error {
	head := []byte("{\"traceEvents\":[\n")
	for pid, t := range traces {
		// Name the process after the run so Perfetto's track labels carry
		// the experiment/preset/scheme identity.
		if pid > 0 {
			head = append(head, ',', '\n')
		}
		head = appendChromeCommon(head, "process_name", 'M', 0, pid, 0)
		head = append(head, `,"args":{"name":`...)
		head = appendJSONString(head, t.Label)
		head = append(head, `}}`...)
		if err := writeBlock(w, head); err != nil {
			return err
		}
		head = head[:0]
		if err := writeRecords(w, t.count, func(dst []byte, i int) []byte {
			return appendChromeEvent(dst, t.buf[(t.start+i)%len(t.buf)], pid)
		}); err != nil {
			return err
		}
	}
	return writeBlock(w, append(head, "\n]}\n"...))
}

// WriteChromeTrace writes this single trace as a Chrome trace-event JSON
// document (pid 0).
func (t *RunTrace) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return writeChromeTraces(w, nil)
	}
	return writeChromeTraces(w, []*RunTrace{t})
}
