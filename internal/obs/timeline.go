package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Timeline samples run-local series on a simulated-time tick. Like
// RunTrace it is written only by its run's goroutine, and it is nil-safe.
// It deliberately samples engine-local quantities (freshness ratio, counts
// the run itself owns) rather than the process-wide metric registry: under
// a parallel sweep the registry interleaves all concurrent runs, so mid-run
// registry snapshots would depend on worker scheduling. The registry is
// instead exported once at the end (see WriteOpenMetrics), when its totals
// are deterministic.
type Timeline struct {
	Label string

	points  []TimelinePoint
	cap     int
	dropped uint64
}

// TimelinePoint is one sampled value: series name, optional node/item
// coordinates (-1 = not applicable), value at simulated time T.
type TimelinePoint struct {
	T      float64
	Series string
	Node   int32
	Item   int32
	Val    float64
}

// DefaultTimelineCap bounds per-run point storage when no cap is given.
const DefaultTimelineCap = 1 << 18

// NewTimeline returns a timeline for one labelled run. capPoints < 1
// selects DefaultTimelineCap.
func NewTimeline(label string, capPoints int) *Timeline {
	if capPoints < 1 {
		capPoints = DefaultTimelineCap
	}
	return &Timeline{Label: label, cap: capPoints}
}

// Sample records one point; no-op on a nil timeline. Points past the cap
// are dropped (drop-new) and counted.
func (tl *Timeline) Sample(t float64, series string, node, item int32, val float64) {
	if tl == nil {
		return
	}
	if len(tl.points) >= tl.cap {
		tl.dropped++
		return
	}
	tl.points = append(tl.points, TimelinePoint{T: t, Series: series, Node: node, Item: item, Val: val})
}

// Len returns the number of stored points.
func (tl *Timeline) Len() int {
	if tl == nil {
		return 0
	}
	return len(tl.points)
}

// Dropped returns how many points were discarded at the cap.
func (tl *Timeline) Dropped() uint64 {
	if tl == nil {
		return 0
	}
	return tl.dropped
}

// TimelineCSVHeader is the first line of every timeline CSV export.
const TimelineCSVHeader = "run,t,series,node,item,value"

// appendCSV appends one point as a CSV record. Series names never contain
// commas or quotes (they are code-chosen identifiers), so no escaping.
func appendTimelineCSV(dst []byte, label string, p TimelinePoint) []byte {
	dst = append(dst, label...)
	dst = append(dst, ',')
	dst = strconv.AppendFloat(dst, p.T, 'g', -1, 64)
	dst = append(dst, ',')
	dst = append(dst, p.Series...)
	dst = append(dst, ',')
	if p.Node >= 0 {
		dst = strconv.AppendInt(dst, int64(p.Node), 10)
	}
	dst = append(dst, ',')
	if p.Item >= 0 {
		dst = strconv.AppendInt(dst, int64(p.Item), 10)
	}
	dst = append(dst, ',')
	dst = strconv.AppendFloat(dst, p.Val, 'g', -1, 64)
	dst = append(dst, '\n')
	return dst
}

// WriteCSV writes the points as CSV rows (no header — the Observer writes
// one header for the whole file). The reader splits rows on commas and
// line feeds and trims white space off each line, so a label holding a
// comma or a line feed, or beginning with white space, is an error: it
// could not be read back.
func (tl *Timeline) WriteCSV(w io.Writer) error {
	if tl == nil {
		return nil
	}
	first, _ := utf8.DecodeRuneInString(tl.Label)
	if strings.ContainsAny(tl.Label, ",\n") || unicode.IsSpace(first) {
		return fmt.Errorf("timeline: label %q cannot be a CSV field", tl.Label)
	}
	return writeRecords(w, len(tl.points), func(dst []byte, i int) []byte {
		return appendTimelineCSV(dst, tl.Label, tl.points[i])
	})
}

// TimelineRecord is one parsed timeline CSV row.
type TimelineRecord struct {
	Run string
	TimelinePoint
}

// ReadTimelineCSV parses a timeline CSV stream written by the Observer:
// its first non-blank line must be the header.
func ReadTimelineCSV(r io.Reader) ([]TimelineRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []TimelineRecord
	lineNo, header := 0, false
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if !header {
			if string(line) != TimelineCSVHeader {
				return nil, fmt.Errorf("timeline line %d: unexpected header %q", lineNo, line)
			}
			header = true
			continue
		}
		parts := bytes.Split(line, []byte{','})
		if len(parts) != 6 {
			return nil, fmt.Errorf("timeline line %d: want 6 fields, got %d", lineNo, len(parts))
		}
		rec := TimelineRecord{Run: string(parts[0]), TimelinePoint: TimelinePoint{Series: string(parts[2])}}
		var err error
		if rec.T, err = finiteField(parts[1]); err != nil {
			return nil, fmt.Errorf("timeline line %d t: %w", lineNo, err)
		}
		if rec.Node, err = idField(parts[3]); err != nil {
			return nil, fmt.Errorf("timeline line %d node: %w", lineNo, err)
		}
		if rec.Item, err = idField(parts[4]); err != nil {
			return nil, fmt.Errorf("timeline line %d item: %w", lineNo, err)
		}
		if rec.Val, err = finiteField(parts[5]); err != nil {
			return nil, fmt.Errorf("timeline line %d value: %w", lineNo, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// finiteField parses a float column. The writer never writes NaN or ±Inf.
func finiteField(b []byte) (float64, error) {
	v, err := strconv.ParseFloat(string(b), 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%q is not finite", b)
	}
	return v, err
}

// idField parses a node or item column. The writer leaves a negative id
// empty, which reads as -1, so a negative number is an error.
func idField(b []byte) (int32, error) {
	if len(b) == 0 {
		return -1, nil
	}
	v, err := strconv.ParseInt(string(b), 10, 32)
	if err == nil && v < 0 {
		err = fmt.Errorf("negative id %d", v)
	}
	return int32(v), err
}
