package obs

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"
)

// The block writer's oracle is the loop it replaced: each record formatted
// on its own into one line buffer and written through a bufio.Writer. The
// export oracles below drive it from the collectors' own accessors
// (Events, Spans, the points in order), not from the exporters' record
// closures, so a wrong ring index or record order shows too. Run them at
// several GOMAXPROCS values, as CI does:
//
//	go test -cpu 1,2,8 -run '^(TestWriteRecords|TestExports)' ./internal/obs

// loopRecords writes records 0..n-1 one at a time.
func loopRecords(w io.Writer, n int, appendRecord func([]byte, int) []byte) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i := 0; i < n; i++ {
		line = appendRecord(line[:0], i)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func loopEvents(w io.Writer, t *RunTrace) error {
	head := appendJSONString([]byte(`{"run":`), t.Label)
	evs := t.Events()
	return loopRecords(w, len(evs), func(dst []byte, i int) []byte { return appendJSONL(dst, head, evs[i]) })
}

func loopSpans(w io.Writer, l *Lineage) error {
	head := spanHead(l.Label, l.Scheme)
	spans := l.Spans()
	return loopRecords(w, len(spans), func(dst []byte, i int) []byte { return appendSpanJSONL(dst, head, spans[i]) })
}

func loopTimeline(w io.Writer, tl *Timeline) error {
	return loopRecords(w, tl.Len(), func(dst []byte, i int) []byte { return appendTimelineCSV(dst, tl.Label, tl.points[i]) })
}

// loopChrome is the Chrome writer as it was before blocks: every record,
// the document's opening and close included, through one bufio.Writer.
func loopChrome(w io.Writer, traces []*RunTrace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	var buf []byte
	for pid, t := range traces {
		buf = buf[:0]
		if pid > 0 {
			buf = append(buf, ',', '\n')
		}
		buf = appendChromeCommon(buf, "process_name", 'M', 0, pid, 0)
		buf = append(buf, `,"args":{"name":`...)
		buf = appendJSONString(buf, t.Label)
		buf = append(buf, `}}`...)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		for _, ev := range t.Events() {
			buf = appendChromeEvent(buf[:0], ev, pid)
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// exportSizes are the record counts the tests cover: none, one, either
// side of a block boundary, and several blocks plus a remainder.
var exportSizes = []int{0, 1, blockRecords - 1, blockRecords, blockRecords + 1, 3*blockRecords + 17}

// recordRun fills one run's collectors with n records each. Its trace
// keeps 1 in sampleEvery events in a ring of n that has wrapped, its
// lineage and timeline reach their cap of n and drop the rest. Fields are
// drawn so that every optional field is both present and absent, and
// contact_end events, which trace.json skips, come in runs long enough
// to leave some blocks empty.
func recordRun(label string, n, sampleEvery int) Recording {
	rec := Recording{Label: label, Trace: NewRunTrace(label, sampleEvery, max(n, 1))}
	if n == 0 {
		rec.Lineage, rec.Timeline = NewLineage(label, "hierarchical", 0), NewTimeline(label, 0)
		return rec
	}
	rec.Lineage, rec.Timeline = NewLineage(label, "hierarchical", n), NewTimeline(label, n)
	rng := rand.New(rand.NewSource(int64(n*10 + sampleEvery)))
	id := func() int32 {
		if rng.Intn(4) == 0 {
			return -1
		}
		return int32(rng.Intn(200))
	}
	val := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(5000))
		}
		return rng.NormFloat64() * 1e4
	}
	emitted := (n + n/3 + 5) * sampleEvery
	for i := 0; i < emitted; i++ {
		kind := Kind(1 + rng.Intn(int(kindCount)-1))
		if i/500%3 == 1 {
			kind = KindContactEnd
		}
		rec.Trace.Emit(Event{T: float64(i)*13.37 + rng.Float64(), Kind: kind, A: id(), B: id(), Item: id(), Ver: id(), Val: val()})
	}
	for i := 0; i < n+3; i++ {
		rec.Lineage.add(Span{Parent: SpanID(rng.Intn(i + 1)), Kind: SpanKind(rng.Intn(len(spanKindNames))),
			T: float64(i) * 7.5, From: id(), To: id(), Item: id(), Ver: id(), Age: val()})
		rec.Timeline.Sample(float64(i/4)*3600, []string{"freshness_ratio", "deliveries", "copy_age"}[i%3], id(), id(), val())
	}
	return rec
}

// exportCase is one export and its oracle.
type exportCase struct {
	name        string
	write, want func(io.Writer) error
}

// runExports lists every export of one run.
func runExports(rec Recording) []exportCase {
	return []exportCase{
		{"events.jsonl", rec.Trace.WriteJSONL, func(w io.Writer) error { return loopEvents(w, rec.Trace) }},
		{"trace.json", rec.Trace.WriteChromeTrace, func(w io.Writer) error { return loopChrome(w, []*RunTrace{rec.Trace}) }},
		{"lineage.jsonl", rec.Lineage.WriteJSONL, func(w io.Writer) error { return loopSpans(w, rec.Lineage) }},
		{"timeline.csv", rec.Timeline.WriteCSV, func(w io.Writer) error { return loopTimeline(w, rec.Timeline) }},
	}
}

// observerExports commits three runs out of label order, the first of n
// records, and lists the Observer's exports with the oracle's flush: runs
// sorted by label, each written by its loop.
func observerExports(n int) []exportCase {
	o := NewObserver(Config{})
	var runs []Recording
	for i, label := range []string{"E2/b", "E2/a", "E2/c"} {
		rec := recordRun(label, []int{n, blockRecords + 1, 2}[i], 1+i%2)
		o.Commit(rec)
		runs = append(runs, rec)
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Label < runs[j].Label })
	each := func(write func(io.Writer, Recording) error) func(io.Writer) error {
		return func(w io.Writer) error {
			for _, r := range runs {
				if err := write(w, r); err != nil {
					return err
				}
			}
			return nil
		}
	}
	traces := []*RunTrace{runs[0].Trace, runs[1].Trace, runs[2].Trace}
	return []exportCase{
		{"events.jsonl", o.WriteJSONL, each(func(w io.Writer, r Recording) error { return loopEvents(w, r.Trace) })},
		{"trace.json", o.WriteChromeTrace, func(w io.Writer) error { return loopChrome(w, traces) }},
		{"lineage.jsonl", o.WriteLineageJSONL, each(func(w io.Writer, r Recording) error { return loopSpans(w, r.Lineage) })},
		{"timeline.csv", o.WriteTimelineCSV, func(w io.Writer) error {
			if _, err := io.WriteString(w, TimelineCSVHeader+"\n"); err != nil {
				return err
			}
			return each(func(w io.Writer, r Recording) error { return loopTimeline(w, r.Timeline) })(w)
		}},
	}
}

// output runs write into a buffer.
func output(t *testing.T, write func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameBytes fails the test at the first byte where got and want differ.
func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	t.Fatalf("%s: %d bytes, want %d; first difference at byte %d:\n got %q\nwant %q",
		what, len(got), len(want), i, got[i:min(len(got), i+80)], want[i:min(len(want), i+80)])
}

// TestExportsMatchLoop: every export writes the bytes of the loop it
// replaced, at every size, for one run and for several through the
// Observer.
func TestExportsMatchLoop(t *testing.T) {
	for _, n := range exportSizes {
		for _, sample := range []int{1, 3} {
			rec := recordRun("E2/reality-like/p00/hierarchical/r0", n, sample)
			if rec.Trace.Len() != n || rec.Lineage.Len() != n || rec.Timeline.Len() != n {
				t.Fatalf("recordRun(%d) kept %d events, %d spans, %d points", n, rec.Trace.Len(), rec.Lineage.Len(), rec.Timeline.Len())
			}
			for _, c := range runExports(rec) {
				sameBytes(t, c.name+" of "+strconv.Itoa(n)+" records", output(t, c.write), output(t, c.want))
			}
		}
		for _, c := range observerExports(n) {
			sameBytes(t, "observer "+c.name+" with "+strconv.Itoa(n)+" records", output(t, c.write), output(t, c.want))
		}
	}
}

var errWriteFailed = errors.New("write failed")

// failingWriter takes the first k bytes written to it and then fails,
// keeping a short write's bytes as a file would.
type failingWriter struct {
	k   int
	got []byte
}

func (f *failingWriter) Write(p []byte) (int, error) {
	n := min(len(p), f.k-len(f.got))
	f.got = append(f.got, p[:n]...)
	if n < len(p) {
		return n, errWriteFailed
	}
	return n, nil
}

// failOffsets are the byte counts after which a writer fails: 0, 1, every
// given boundary and its neighbours, and points spread over total.
func failOffsets(total int, boundaries []int) []int {
	ks := []int{0, 1, total - 1, total}
	for _, b := range boundaries {
		ks = append(ks, b-1, b, b+1)
	}
	for i := 1; i < 16; i++ {
		ks = append(ks, total*i/16)
	}
	return ks
}

// checkFailing writes through a writer failing after each k bytes: the
// call returns the writer's error whenever k is short of the whole, the
// bytes taken are the whole's first k, and no worker outlives the call.
func checkFailing(t *testing.T, what string, write func(io.Writer) error, want []byte, ks []int) {
	t.Helper()
	start := runtime.NumGoroutine()
	for _, k := range ks {
		if k < 0 || k > len(want) {
			continue
		}
		f := &failingWriter{k: k}
		err := write(f)
		if k < len(want) && !errors.Is(err, errWriteFailed) {
			t.Fatalf("%s failing after %d of %d bytes returned %v", what, k, len(want), err)
		}
		if k == len(want) && err != nil {
			t.Fatalf("%s into room for all %d bytes: %v", what, k, err)
		}
		sameBytes(t, what+" before the failure", f.got, want[:k])
		waitGoroutines(t, what, start)
	}
}

// waitGoroutines waits until no more than want goroutines run: a worker
// may still be finishing its deferred Done when the call returns.
func waitGoroutines(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s left %d goroutines running, want %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExportsStopOnError: an export returns its writer's error wherever
// the writer fails, and stops every worker.
func TestExportsStopOnError(t *testing.T) {
	n := exportSizes[len(exportSizes)-1]
	for _, c := range append(runExports(recordRun("E2/x", n, 3)), observerExports(n)...) {
		checkFailing(t, c.name, c.write, output(t, c.want), failOffsets(len(output(t, c.want)), nil))
	}
}

// testRecords returns n records that differ in length, some empty, with
// each record's index in it; block 0 is slow to format, so other workers'
// blocks finish before it and a writer that wrote blocks as they finished
// would put them first.
func testRecords(n int) (func([]byte, int) []byte, []int) {
	var boundaries []int
	total := 0
	appendRecord := func(dst []byte, i int) []byte {
		if i == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		if i%17 == 5 {
			return dst
		}
		dst = strconv.AppendInt(dst, int64(i), 10)
		for j := 0; j < i%23; j++ {
			dst = append(dst, byte('a'+j))
		}
		return append(dst, '\n')
	}
	var scratch []byte
	for i := 0; i < n; i++ {
		if i > 0 && i%blockRecords == 0 {
			boundaries = append(boundaries, total)
		}
		total += len(appendRecord(scratch[:0], i))
	}
	return appendRecord, boundaries
}

// TestWriteRecords: the block writer writes the loop's bytes at every
// size, with each block's first and last record at the right place.
func TestWriteRecords(t *testing.T) {
	for _, n := range append(exportSizes, 8*blockRecords+5) {
		appendRecord, _ := testRecords(n)
		want := output(t, func(w io.Writer) error { return loopRecords(w, n, appendRecord) })
		got := output(t, func(w io.Writer) error { return writeRecords(w, n, appendRecord) })
		sameBytes(t, strconv.Itoa(n)+" records", got, want)
	}
}

// TestWriteRecordsStopsOnError: a write that fails anywhere, a block
// boundary included, stops the call with the writer's error and no
// worker left running.
func TestWriteRecordsStopsOnError(t *testing.T) {
	for _, n := range []int{blockRecords + 1, 8*blockRecords + 5} {
		appendRecord, boundaries := testRecords(n)
		want := output(t, func(w io.Writer) error { return loopRecords(w, n, appendRecord) })
		write := func(w io.Writer) error { return writeRecords(w, n, appendRecord) }
		checkFailing(t, strconv.Itoa(n)+" records", write, want, failOffsets(len(want), boundaries))
	}
}

// FuzzWriteRecords checks the block writer against the loop on records
// cut from data, n of them, into a writer failing after failAt bytes
// (never, if negative).
func FuzzWriteRecords(f *testing.F) {
	f.Add([]byte("a,b\n{\"run\":\"x\"}"), uint16(3*blockRecords+17), int32(-1))
	f.Add([]byte("0123456789"), uint16(blockRecords), int32(5000))
	f.Add([]byte{}, uint16(5), int32(0))
	f.Fuzz(func(t *testing.T, data []byte, n16 uint16, failAt int32) {
		n := int(n16) % (8*blockRecords + 1)
		appendRecord := func(dst []byte, i int) []byte {
			if len(data) == 0 {
				return dst
			}
			b := int(data[i%len(data)])
			if b%5 == 0 {
				return dst
			}
			dst = strconv.AppendInt(dst, int64(i), 10)
			from := i * 31 % len(data)
			return append(dst, data[from:min(len(data), from+b%16)]...)
		}
		want := output(t, func(w io.Writer) error { return loopRecords(w, n, appendRecord) })
		k := len(want)
		if failAt >= 0 {
			k = int(failAt) % (len(want) + 1)
		}
		fw := &failingWriter{k: k}
		err := writeRecords(fw, n, appendRecord)
		if (k < len(want)) != errors.Is(err, errWriteFailed) || (k == len(want) && err != nil) {
			t.Fatalf("%d records failing after %d of %d bytes returned %v", n, k, len(want), err)
		}
		sameBytes(t, strconv.Itoa(n)+" records", fw.got, want[:k])
	})
}
