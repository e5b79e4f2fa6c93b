package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadONE parses a connectivity trace in the ONE simulator's
// StandardEventsReader format:
//
//	<time> CONN <nodeA> <nodeB> up
//	<time> CONN <nodeA> <nodeB> down
//
// Node identifiers may be plain integers or carry a non-numeric prefix
// ("n12", "p4"); the trailing digits are used. Events other than CONN are
// ignored. Connections still up at the last event time are closed there.
// The result is normalized and validated.
func ReadONE(r io.Reader) (*Trace, error) {
	t := &Trace{Name: "one-import"}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	type openKey struct{ a, b NodeID }
	openAt := make(map[openKey]float64)

	var maxNode NodeID
	var lastTime float64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%w: line %d: too few fields", ErrFormat, lineNo)
		}
		ts, err := parseTime(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bad time %q", ErrFormat, lineNo, fields[0])
		}
		if ts > lastTime {
			lastTime = ts
		}
		if !strings.EqualFold(fields[1], "CONN") {
			continue // other ONE event types (messages, movement) are irrelevant here
		}
		if len(fields) < 5 {
			return nil, fmt.Errorf("%w: line %d: CONN needs 5 fields", ErrFormat, lineNo)
		}
		a, err := parseONENode(fields[2])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, lineNo, err)
		}
		b, err := parseONENode(fields[3])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, lineNo, err)
		}
		if a == b {
			return nil, fmt.Errorf("%w: line %d: self connection %d", ErrFormat, lineNo, a)
		}
		if a > b {
			a, b = b, a
		}
		if b > maxNode {
			maxNode = b
		}
		key := openKey{a, b}
		switch strings.ToLower(fields[4]) {
		case "up":
			if _, dup := openAt[key]; !dup {
				openAt[key] = ts
			}
		case "down":
			start, ok := openAt[key]
			if !ok {
				continue // down without up: common at trace boundaries, skip
			}
			delete(openAt, key)
			if ts > start {
				t.Contacts = append(t.Contacts, Contact{A: a, B: b, Start: start, End: ts})
			}
		default:
			return nil, fmt.Errorf("%w: line %d: CONN state %q", ErrFormat, lineNo, fields[4])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	// Close dangling connections at the final event time.
	for key, start := range openAt {
		if lastTime > start {
			t.Contacts = append(t.Contacts, Contact{A: key.a, B: key.b, Start: start, End: lastTime})
		}
	}
	t.N = int(maxNode) + 1
	t.Duration = lastTime
	t.Normalize()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// parseONENode extracts the numeric id from a ONE node name ("12", "n12",
// "p4").
func parseONENode(s string) (NodeID, error) {
	i := 0
	for i < len(s) && (s[i] < '0' || s[i] > '9') {
		i++
	}
	if i == len(s) {
		return 0, fmt.Errorf("node %q has no numeric id", s)
	}
	n, err := strconv.Atoi(s[i:])
	if err != nil {
		return 0, fmt.Errorf("node %q: %v", s, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("node %q: negative id", s)
	}
	return NodeID(n), nil
}

// ReadAuto sniffs the format (native text vs ONE StandardEvents) and
// parses accordingly. The ONE format is recognized by a "CONN" token in
// the first non-comment, non-blank line.
func ReadAuto(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var sniffed []byte
	for {
		line, err := br.ReadBytes('\n')
		sniffed = append(sniffed, line...)
		trimmed := strings.TrimSpace(string(line))
		if err != nil && trimmed == "" {
			break
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			if err != nil {
				break
			}
			continue
		}
		full := io.MultiReader(strings.NewReader(string(sniffed)), br)
		if fieldsHaveCONN(trimmed) {
			return ReadONE(full)
		}
		return Read(full)
	}
	return Read(strings.NewReader(string(sniffed)))
}

func fieldsHaveCONN(line string) bool {
	fields := strings.Fields(line)
	return len(fields) >= 2 && strings.EqualFold(fields[1], "CONN")
}
