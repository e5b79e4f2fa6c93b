package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestLineageNilSafety: a zero Recording records nothing, and every fact
// hands back the "no span" ID, so scheme code needs no guards.
func TestLineageNilSafety(t *testing.T) {
	var rec Recording
	rec.Planned(0, 1, 2, 1, 1, 0.5)
	for name, id := range map[string]SpanID{
		"Generate":  rec.Generate(0, 0, 1, 1),
		"Duty":      rec.Duty(0, 1, 2, 1, 1, 3),
		"Handoff":   rec.Handoff(0, 1, 2, 3, 1, 1),
		"Delivered": rec.Delivered(0, 1, 2, 3, 1, 1, 0),
		"Reassign":  rec.Reassign(0, 2, 1),
		"Root":      rec.Root(1, 1),
	} {
		if id != 0 {
			t.Errorf("off %s = %d, want 0", name, id)
		}
	}
	if rec.Lineage.Len() != 0 || rec.Lineage.Dropped() != 0 || rec.Trace.Len() != 0 {
		t.Error("nil collectors should stay empty")
	}
	var tl *Timeline
	tl.Sample(0, "x", -1, -1, 1)
	if tl.Len() != 0 || tl.Dropped() != 0 {
		t.Error("nil timeline should stay empty")
	}
}

// TestLineageChainAndRoots builds a generation → duty → handoff →
// delivery chain and checks parenting, root lookup and version
// supersession, and that each fact writes its event and its span in one
// call, with the fields each view has always carried.
func TestLineageChainAndRoots(t *testing.T) {
	rec := Recording{Trace: NewRunTrace("run", 1, 0), Lineage: NewLineage("run", "hierarchical", 0)}
	g1 := rec.Generate(100, 3, 7, 1)
	if rec.Root(7, 1) != g1 {
		t.Fatal("root lookup after generate failed")
	}
	g2 := rec.Generate(200, 3, 7, 2)
	if rec.Root(7, 1) != g1 || rec.Root(7, 2) != g2 {
		t.Fatal("per-version roots must coexist")
	}
	rec.Planned(210, 4, 6, 7, 2, 0.75)
	d := rec.Duty(210, g2, 4, 7, 2, 2)
	h := rec.Handoff(220, d, 4, 5, 7, 2)
	del := rec.Delivered(230, h, 5, 6, 7, 2, 30)
	re := rec.Reassign(240, 3, 7)

	wantEvents := []Event{
		{T: 100, Kind: KindGenerate, A: 3, B: -1, Item: 7, Ver: 1},
		{T: 200, Kind: KindGenerate, A: 3, B: -1, Item: 7, Ver: 2},
		{T: 210, Kind: KindReplicationPlanned, A: 4, B: 6, Item: 7, Ver: 2, Val: 0.75},
		{T: 210, Kind: KindRefreshScheduled, A: 4, B: -1, Item: 7, Ver: 2, Val: 2},
		{T: 220, Kind: KindRelayHandoff, A: 4, B: 5, Item: 7, Ver: 2},
		{T: 230, Kind: KindRefreshDelivered, A: -1, B: 6, Item: 7, Ver: 2, Val: 30},
		{T: 240, Kind: KindDutyReassigned, A: 3, B: -1, Item: 7, Ver: -1},
	}
	if got := rec.Trace.Events(); !slices.Equal(got, wantEvents) {
		t.Fatalf("events:\n%+v\nwant\n%+v", got, wantEvents)
	}
	wantSpans := []Span{
		{ID: g1, Kind: SpanGenerate, T: 100, From: 3, To: -1, Item: 7, Ver: 1},
		{ID: g2, Kind: SpanGenerate, T: 200, From: 3, To: -1, Item: 7, Ver: 2},
		{ID: d, Parent: g2, Kind: SpanDuty, T: 210, From: 4, To: -1, Item: 7, Ver: 2},
		{ID: h, Parent: d, Kind: SpanHandoff, T: 220, From: 4, To: 5, Item: 7, Ver: 2},
		{ID: del, Parent: h, Kind: SpanDelivery, T: 230, From: 5, To: 6, Item: 7, Ver: 2, Age: 30},
		// A reassignment parents on the item's newest generation.
		{ID: re, Parent: g2, Kind: SpanReassign, T: 240, From: 3, To: -1, Item: 7, Ver: -1},
	}
	if got := rec.Lineage.Spans(); !slices.Equal(got, wantSpans) {
		t.Fatalf("spans:\n%+v\nwant\n%+v", got, wantSpans)
	}

	var records []SpanRecord
	for _, sp := range wantSpans[1:5] {
		records = append(records, SpanRecord{Run: "run", Scheme: "hierarchical", Span: sp})
	}
	if got := BuildSpanTree(records).Depth(del); got != 3 {
		t.Fatalf("delivery depth = %d, want 3", got)
	}
}

// TestLineageCapDropsNew: past the cap new spans are dropped (not ring-
// overwritten), so every stored span's parent is stored too.
func TestLineageCapDropsNew(t *testing.T) {
	rec := Recording{Lineage: NewLineage("run", "s", 2)}
	a := rec.Generate(0, 0, 1, 1)
	b := rec.Duty(1, a, 2, 1, 1, 1)
	c := rec.Handoff(2, b, 2, 3, 1, 1)
	if c != 0 {
		t.Fatalf("over-cap span got ID %d, want 0", c)
	}
	if rec.Lineage.Len() != 2 || rec.Lineage.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", rec.Lineage.Len(), rec.Lineage.Dropped())
	}
	// A child of a dropped span records parent 0 — never a dangling ID.
	if d := rec.Delivered(3, c, 2, 3, 1, 1, 0); d != 0 {
		t.Fatalf("children past the cap must be dropped too, got %d", d)
	}
}

// TestLineageJSONLRoundTrip: the writer's bytes parse back into the exact
// span set, and writing twice yields identical bytes.
func TestLineageJSONLRoundTrip(t *testing.T) {
	rec := Recording{Lineage: NewLineage("E2/p00/r0", "epidemic", 0)}
	g := rec.Generate(10.5, 1, 3, 2)
	h := rec.Handoff(20.25, g, 1, 4, 3, 2)
	rec.Delivered(30.125, h, 4, 9, 3, 2, 19.625)

	var b1, b2 bytes.Buffer
	if err := rec.Lineage.WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := rec.Lineage.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("repeated WriteJSONL not byte-identical")
	}
	records, err := ReadSpansJSONL(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("round-trip got %d records, want 3", len(records))
	}
	for i, want := range rec.Lineage.Spans() {
		got := records[i]
		if got.Run != "E2/p00/r0" || got.Scheme != "epidemic" || got.Span != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
}

// rejectedSpanLines are lineage lines the writer never produces, each of
// which ReadSpansJSONL must refuse.
var rejectedSpanLines = map[string]string{
	"unknown field":    `{"run":"r","scheme":"s","span":1,"kind":"generate","t":0,"bogus":1}`,
	"NaN time":         `{"run":"r","scheme":"s","span":1,"kind":"generate","t":NaN}`,
	"+Inf time":        `{"run":"r","scheme":"s","span":1,"kind":"generate","t":+Inf}`,
	"-Inf age":         `{"run":"r","scheme":"s","span":1,"kind":"delivery","t":0,"age":-Inf}`,
	"hex float time":   `{"run":"r","scheme":"s","span":1,"kind":"generate","t":0x1p-2}`,
	"underscored time": `{"run":"r","scheme":"s","span":1,"kind":"generate","t":1_0}`,
	"trailing comma":   `{"run":"r","scheme":"s","span":1,"kind":"generate","t":0,}`,
	"two values":       `{"run":"r","scheme":"s","span":1,"kind":"generate","t":0}{"span":2}`,
	"node below -1":    `{"run":"r","scheme":"s","span":1,"kind":"generate","t":0,"from":-5}`,
}

func TestReadSpansJSONLRejects(t *testing.T) {
	for name, line := range rejectedSpanLines {
		if recs, err := ReadSpansJSONL(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: accepted %s as %+v", name, line, recs)
		}
	}
}

// TestTimelineRoundTrip: CSV write/read preserves samples, including the
// empty node/item columns of scenario-wide series.
func TestTimelineRoundTrip(t *testing.T) {
	tl := NewTimeline("run-x", 2)
	tl.Sample(100, "freshness_ratio", -1, -1, 0.75)
	tl.Sample(100, "copy_age", 3, 1, 360)
	tl.Sample(200, "copy_age", 3, 1, 420) // over cap: dropped
	if tl.Len() != 2 || tl.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", tl.Len(), tl.Dropped())
	}
	var buf bytes.Buffer
	buf.WriteString(TimelineCSVHeader + "\n")
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := ReadTimelineCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("round-trip got %d records, want 2", len(records))
	}
	if r := records[0]; r.Run != "run-x" || r.Series != "freshness_ratio" || r.Node != -1 || r.Item != -1 || r.Val != 0.75 {
		t.Fatalf("record 0 = %+v", r)
	}
	if r := records[1]; r.Node != 3 || r.Item != 1 || r.Val != 360 {
		t.Fatalf("record 1 = %+v", r)
	}
}

// rejectedTimelineLines are timeline files with one line the writer never
// produces, on line 2; ReadTimelineCSV must refuse each, naming the line.
var rejectedTimelineLines = map[string]string{
	"NaN time":              TimelineCSVHeader + "\nr,NaN,freshness_ratio,,,0.5\n",
	"+Inf value":            TimelineCSVHeader + "\nr,100,copy_age,3,1,+Inf\n",
	"-Inf value":            TimelineCSVHeader + "\nr,100,copy_age,3,1,-Inf\n",
	"negative node":         TimelineCSVHeader + "\nr,100,copy_age,-5,1,360\n",
	"row before the header": "\nr,1,s,,,1\n",
}

func TestReadTimelineCSVRejects(t *testing.T) {
	for name, file := range rejectedTimelineLines {
		recs, err := ReadTimelineCSV(strings.NewReader(file))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: %q read as %+v, error %v", name, file, recs, err)
		}
	}
}

// fuzzLabels seed the label argument of the reader fuzz targets: a cell
// label, labels holding what a JSON string or a CSV field must escape or
// refuse, and invalid UTF-8.
var fuzzLabels = []string{
	"E2/infocom-like/p00/hierarchical/r0", "E2/x\x01y", "tab\tbell\a", `q"uo\te`,
	"a,b", "line\nbreak", "cr\rlf", " lead", "é→\u2028\U0001F600\U000E0001", "",
	"bad\xff\xfeutf8\xe2\x82",
}

// checkJSONExports records one run labelled label, its scheme named label
// too, and writes every JSON export: each events.jsonl and lineage.jsonl
// line, and the whole trace.json, must be valid JSON, and the span reader
// must return the label unchanged. The writers write each byte of invalid
// UTF-8 as U+FFFD, as the conversion to []rune does, so such a label reads
// back with those replacements.
func checkJSONExports(t *testing.T, label string) {
	t.Helper()
	want := string([]rune(label))
	o := NewObserver(Config{Lineage: true})
	rec := o.Open(label, label)
	g := rec.Generate(0, 2, 0, 0)
	rec.Handoff(10, rec.Duty(0, g, 2, 3, 0, 0), 2, 3, 0, 0)
	o.Commit(rec)
	var events, spans, chrome bytes.Buffer
	if err := errors.Join(o.WriteJSONL(&events), o.WriteLineageJSONL(&spans), o.WriteChromeTrace(&chrome)); err != nil {
		t.Fatal(err)
	}
	for _, buf := range []*bytes.Buffer{&events, &spans} {
		for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
			if !json.Valid([]byte(line)) {
				t.Fatalf("label %q: export line is not JSON: %s", label, line)
			}
		}
	}
	if !json.Valid(chrome.Bytes()) {
		t.Fatalf("label %q: trace.json is not JSON:\n%s", label, chrome.String())
	}
	recs, err := ReadSpansJSONL(&spans)
	if err != nil || len(recs) != 3 {
		t.Fatalf("label %q: read %d spans, error %v", label, len(recs), err)
	}
	for _, r := range recs {
		if r.Run != want || r.Scheme != want {
			t.Fatalf("label %q read back as run %q, scheme %q", label, r.Run, r.Scheme)
		}
	}
}

// checkTimelineLabel writes one timeline point labelled label: WriteCSV
// either refuses the label, or the reader returns it unchanged.
func checkTimelineLabel(t *testing.T, label string) {
	t.Helper()
	tl := NewTimeline(label, 0)
	tl.Sample(1, "freshness_ratio", -1, -1, 0.5)
	out := bytes.NewBufferString(TimelineCSVHeader + "\n")
	if tl.WriteCSV(out) != nil {
		return
	}
	recs, err := ReadTimelineCSV(out)
	if err != nil || len(recs) != 1 || recs[0].Run != label {
		t.Fatalf("label %q read back as %+v, error %v", label, recs, err)
	}
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// FuzzReadSpansJSONL feeds arbitrary bytes to the lineage reader. It must
// not panic, and every span it accepts must be finite and survive the
// writer and the reader again unchanged, floats bit for bit. Its label
// argument goes through every JSON export (checkJSONExports). The seed
// corpus runs with the normal test suite; `go test -fuzz=FuzzReadSpansJSONL
// ./internal/obs` explores further.
func FuzzReadSpansJSONL(f *testing.F) {
	rec := Recording{Lineage: NewLineage("E2/infocom-like/p00/hierarchical/r0", "hierarchical", 0)}
	g := rec.Generate(112320, 2, 2, 2)
	d := rec.Duty(112320, g, 2, 2, 2, 3)
	h := rec.Handoff(115466, d, 2, 20, 2, 2)
	rec.Delivered(116305.25, h, 20, 22, 2, 2, 3985.25)
	rec.Reassign(120000, 2, 2)
	var buf bytes.Buffer
	if err := rec.Lineage.WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	whole := buf.String()
	label := fuzzLabels[0]
	f.Add(whole, label)
	f.Add(whole[:len(whole)-12], label) // torn last line
	f.Add("\n", label)
	for _, line := range rejectedSpanLines {
		f.Add(whole+line+"\n", label)
	}
	for _, l := range fuzzLabels[1:] {
		f.Add(whole, l)
	}
	f.Fuzz(func(t *testing.T, data, label string) {
		checkJSONExports(t, label)
		recs, err := ReadSpansJSONL(strings.NewReader(data))
		if err != nil {
			return
		}
		var out []byte
		for _, r := range recs {
			if !finite(r.T) || !finite(r.Age) {
				t.Fatalf("accepted a non-finite span %+v", r)
			}
			out = appendSpanJSONL(out, spanHead(r.Run, r.Scheme), r.Span)
		}
		back, err := ReadSpansJSONL(bytes.NewReader(out))
		if err != nil || len(back) != len(recs) {
			t.Fatalf("%d accepted spans read back as %d, error %v:\n%s", len(recs), len(back), err, out)
		}
		for i, a := range recs {
			b := back[i]
			if !sameBits(a.T, b.T) || !sameBits(a.Age, b.Age) {
				t.Fatalf("span %d floats changed across a round trip: %+v vs %+v", i, a, b)
			}
			a.T, a.Age, b.T, b.Age = 0, 0, 0, 0
			if a != b {
				t.Fatalf("span %d changed across a round trip: %+v vs %+v", i, a, b)
			}
		}
	})
}

// FuzzReadTimelineCSV is FuzzReadSpansJSONL for the timeline reader and
// its writer. Its label argument goes through WriteCSV
// (checkTimelineLabel).
func FuzzReadTimelineCSV(f *testing.F) {
	tl := NewTimeline("E2/infocom-like/p00/hierarchical/r0", 0)
	tl.Sample(3600, "freshness_ratio", -1, -1, 0.625)
	tl.Sample(3600, "copy_age", 22, 2, 3985.25)
	tl.Sample(7200, "deliveries", -1, -1, 17)
	buf := bytes.NewBufferString(TimelineCSVHeader + "\n")
	if err := tl.WriteCSV(buf); err != nil {
		f.Fatal(err)
	}
	whole := buf.String()
	label := fuzzLabels[0]
	f.Add(whole, label)
	f.Add(whole[:len(whole)-6], label) // torn last line
	f.Add("\n", label)
	for _, file := range rejectedTimelineLines {
		f.Add(file, label)
	}
	for _, l := range fuzzLabels[1:] {
		f.Add(whole, l)
	}
	f.Fuzz(func(t *testing.T, data, label string) {
		checkTimelineLabel(t, label)
		recs, err := ReadTimelineCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		out := bytes.NewBufferString(TimelineCSVHeader + "\n")
		for _, r := range recs {
			if !finite(r.T) || !finite(r.Val) {
				t.Fatalf("accepted a non-finite point %+v", r)
			}
			one := NewTimeline(r.Run, 1)
			one.Sample(r.T, r.Series, r.Node, r.Item, r.Val)
			if err := one.WriteCSV(out); err != nil {
				t.Fatal(err)
			}
		}
		back, err := ReadTimelineCSV(out)
		if err != nil || len(back) != len(recs) {
			t.Fatalf("%d accepted points read back as %d, error %v", len(recs), len(back), err)
		}
		for i, a := range recs {
			b := back[i]
			if !sameBits(a.T, b.T) || !sameBits(a.Val, b.Val) {
				t.Fatalf("point %d floats changed across a round trip: %+v vs %+v", i, a, b)
			}
			a.T, a.Val, b.T, b.Val = 0, 0, 0, 0
			if a != b {
				t.Fatalf("point %d changed across a round trip: %+v vs %+v", i, a, b)
			}
		}
	})
}

// TestObserverLineageTimelineGating: a run's lineage and timeline exist
// only when configured, and flushes order committed runs by label.
func TestObserverLineageTimelineGating(t *testing.T) {
	off := NewObserver(Config{}).Open("a", "s")
	if off.Trace == nil || off.Lineage != nil || off.Timeline != nil || off.TimelineTick != 0 {
		t.Fatalf("off observer opened %+v", off)
	}

	on := NewObserver(Config{Lineage: true, TimelineTick: -1})
	rb := on.Open("b", "s2")
	ra := on.Open("a", "s1")
	if rb.Lineage == nil || rb.Timeline == nil || rb.TimelineTick != -1 {
		t.Fatalf("on observer opened %+v", rb)
	}
	rb.Generate(0, 0, 1, 1)
	ra.Generate(0, 0, 2, 1)
	on.Commit(rb)
	on.Commit(ra)
	var buf bytes.Buffer
	if err := on.WriteLineageJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"run":"a"`) || !strings.Contains(lines[1], `"run":"b"`) {
		t.Fatalf("flush not sorted by label:\n%s", buf.String())
	}

	st := on.Stats()
	if st.Runs != 2 || st.Spans != 2 {
		t.Fatalf("stats runs = %d, spans = %d, want 2 and 2", st.Runs, st.Spans)
	}
}
