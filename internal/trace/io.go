package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The on-disk format follows the widely used "one contact per line" text
// convention of the Haggle/CRAWDAD tooling:
//
//	# name: infocom06-like
//	# nodes: 78
//	# duration: 337500
//	<a> <b> <start> <end>
//
// Fields are whitespace-separated; lines starting with '#' are either
// header directives (name/nodes/duration) or comments. Times are seconds.

// ErrFormat is returned (wrapped) for any malformed trace file content.
var ErrFormat = errors.New("trace: malformed trace file")

// Write serializes the trace in the text format above.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# name: %s\n# nodes: %d\n# duration: %g\n", t.Name, t.N, t.Duration); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, c := range t.Contacts {
		if _, err := fmt.Fprintf(bw, "%d %d %g %g\n", c.A, c.B, c.Start, c.End); err != nil {
			return fmt.Errorf("trace: write contact: %w", err)
		}
	}
	return bw.Flush()
}

// WriteFile writes the trace to the named file.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	if err := Write(f, t); err != nil {
		return err
	}
	return f.Close()
}

// Read parses a trace from the text format. Header directives may appear
// in any order before the first contact line; nodes and duration are
// inferred from the contacts when absent. The result is normalized and
// validated.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	var maxNode NodeID
	var maxEnd float64
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseHeader(t, line); err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, lineNo, err)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("%w: line %d: want 4 fields, got %d", ErrFormat, lineNo, len(fields))
		}
		a, err1 := strconv.Atoi(fields[0])
		b, err2 := strconv.Atoi(fields[1])
		start, err3 := parseTime(fields[2])
		end, err4 := parseTime(fields[3])
		if err := firstErr(err1, err2, err3, err4); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, lineNo, err)
		}
		c := Contact{A: NodeID(a), B: NodeID(b), Start: start, End: end}
		if c.A > maxNode {
			maxNode = c.A
		}
		if c.B > maxNode {
			maxNode = c.B
		}
		if c.End > maxEnd {
			maxEnd = c.End
		}
		t.Contacts = append(t.Contacts, c)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if t.N == 0 {
		t.N = int(maxNode) + 1
	}
	if t.Duration == 0 {
		t.Duration = maxEnd
	}
	t.Normalize()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadFile reads and parses the named trace file, auto-detecting the
// format (native text or ONE StandardEvents).
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	t, err := ReadAuto(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return t, nil
}

func parseHeader(t *Trace, line string) error {
	body := strings.TrimSpace(strings.TrimPrefix(line, "#"))
	key, val, ok := strings.Cut(body, ":")
	if !ok {
		return nil // plain comment
	}
	val = strings.TrimSpace(val)
	switch strings.TrimSpace(key) {
	case "name":
		t.Name = val
	case "nodes":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("nodes: %w", err)
		}
		t.N = n
	case "duration":
		d, err := parseTime(val)
		if err != nil {
			return fmt.Errorf("duration: %w", err)
		}
		t.Duration = d
	}
	return nil
}

// parseTime parses a time field, which must be a finite number:
// strconv.ParseFloat also accepts "NaN" and "Inf".
func parseTime(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, fmt.Errorf("time %q is not a finite number", s)
	}
	return v, err
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
