package trace

import (
	"errors"
	"strings"
	"testing"
)

const oneSample = `# ONE StandardEvents export
10.0 CONN 0 1 up
25.0 CONN 0 1 down
30.5 CONN n2 n3 up
40.0 CONN 2 3 down
50.0 CONN 1 2 up
90.0 XTRA 1 2 somethingelse
`

func TestReadONE(t *testing.T) {
	tr, err := ReadONE(strings.NewReader(oneSample))
	if err != nil {
		t.Fatal(err)
	}
	if tr.N != 4 {
		t.Fatalf("N = %d, want 4", tr.N)
	}
	if tr.Duration != 90 {
		t.Fatalf("duration = %v, want 90 (last event time)", tr.Duration)
	}
	if len(tr.Contacts) != 3 {
		t.Fatalf("contacts = %d, want 3: %+v", len(tr.Contacts), tr.Contacts)
	}
	if c := tr.Contacts[0]; c.A != 0 || c.B != 1 || c.Start != 10 || c.End != 25 {
		t.Fatalf("contact 0: %+v", c)
	}
	// Prefixed node names resolve to ids.
	if c := tr.Contacts[1]; c.A != 2 || c.B != 3 || c.Start != 30.5 || c.End != 40 {
		t.Fatalf("contact 1: %+v", c)
	}
	// Dangling "up" closed at the last event time.
	if c := tr.Contacts[2]; c.A != 1 || c.B != 2 || c.Start != 50 || c.End != 90 {
		t.Fatalf("contact 2: %+v", c)
	}
}

func TestReadONEDownWithoutUpIgnored(t *testing.T) {
	in := "5 CONN 0 1 down\n10 CONN 0 1 up\n20 CONN 0 1 down\n"
	tr, err := ReadONE(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Contacts) != 1 || tr.Contacts[0].Start != 10 {
		t.Fatalf("contacts: %+v", tr.Contacts)
	}
}

func TestReadONEDuplicateUpKeepsFirst(t *testing.T) {
	in := "10 CONN 0 1 up\n15 CONN 0 1 up\n20 CONN 0 1 down\n"
	tr, err := ReadONE(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Contacts) != 1 || tr.Contacts[0].Start != 10 || tr.Contacts[0].End != 20 {
		t.Fatalf("contacts: %+v", tr.Contacts)
	}
}

func TestReadONERejectsGarbage(t *testing.T) {
	cases := []string{
		"x CONN 0 1 up\n",    // bad time
		"10 CONN 0 1\n",      // missing state
		"10 CONN 0 0 up\n",   // self connection
		"10 CONN abc 1 up\n", // no numeric id
		"10 CONN 0 1 sideways\n",
		"10\n", // too few fields
	}
	for _, in := range cases {
		if _, err := ReadONE(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	if _, err := ReadONE(strings.NewReader("10 CONN 0 1\n")); !errors.Is(err, ErrFormat) {
		t.Error("missing state not wrapped as ErrFormat")
	}
	// Non-finite times are malformed fields: ErrFormat, naming the line.
	nonFinite := map[string]string{
		"10 CONN 0 1 up\nInf CONN 0 2 up\n":   "line 2",
		"NaN CONN 0 1 up\n20 CONN 0 1 down\n": "line 1",
		"10 CONN 0 1 up\n-Inf MSG 0 1 x\n":    "line 2",
	}
	for in, line := range nonFinite {
		_, err := ReadONE(strings.NewReader(in))
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), line+":") {
			t.Errorf("ReadONE(%q) = %v, want ErrFormat at %s", in, err, line)
		}
	}
}

func TestParseONENode(t *testing.T) {
	cases := []struct {
		in   string
		want NodeID
		ok   bool
	}{
		{"12", 12, true}, {"n7", 7, true}, {"pedestrian42", 42, true},
		{"abc", 0, false}, {"", 0, false},
	}
	for _, tc := range cases {
		got, err := parseONENode(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("parseONENode(%q) = %v, %v", tc.in, got, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseONENode(%q) accepted", tc.in)
		}
	}
}

func TestReadAutoDetectsONE(t *testing.T) {
	tr, err := ReadAuto(strings.NewReader(oneSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Contacts) != 3 {
		t.Fatalf("auto-detected ONE parse gave %d contacts", len(tr.Contacts))
	}
}

func TestReadAutoDetectsNative(t *testing.T) {
	in := "# name: x\n# nodes: 3\n0 1 5 10\n1 2 20 25\n"
	tr, err := ReadAuto(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "x" || tr.N != 3 || len(tr.Contacts) != 2 {
		t.Fatalf("native parse: %+v", tr)
	}
}

func TestReadAutoEmptyInput(t *testing.T) {
	if _, err := ReadAuto(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ReadAuto(strings.NewReader("# only comments\n")); err == nil {
		t.Fatal("comment-only input accepted")
	}
}
