package trace

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	orig := validTrace()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.N != orig.N || got.Duration != orig.Duration {
		t.Fatalf("header mismatch: %+v vs %+v", got, orig)
	}
	if len(got.Contacts) != len(orig.Contacts) {
		t.Fatalf("contact count %d vs %d", len(got.Contacts), len(orig.Contacts))
	}
	for i := range got.Contacts {
		if got.Contacts[i] != orig.Contacts[i] {
			t.Fatalf("contact %d: %+v vs %+v", i, got.Contacts[i], orig.Contacts[i])
		}
	}
}

func TestReadInfersHeader(t *testing.T) {
	in := "0 1 5 10\n2 1 20 25\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.N != 3 {
		t.Fatalf("inferred N = %d, want 3", tr.N)
	}
	if tr.Duration != 25 {
		t.Fatalf("inferred duration = %v, want 25", tr.Duration)
	}
	// 2 1 must have been normalized to 1 2.
	if tr.Contacts[1].A != 1 || tr.Contacts[1].B != 2 {
		t.Fatalf("not normalized: %+v", tr.Contacts[1])
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a plain comment\n\n# nodes: 5\n0 1 1 2\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.N != 5 || len(tr.Contacts) != 1 {
		t.Fatalf("got N=%d contacts=%d", tr.N, len(tr.Contacts))
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"0 1 1\n",          // too few fields
		"x 1 1 2\n",        // non-numeric node
		"0 y 1 2\n",        // non-numeric node
		"0 1 z 2\n",        // non-numeric time
		"0 1 1 z\n",        // non-numeric time
		"# nodes: bogus\n", // bad header value
		"0 0 1 2\n",        // self contact -> validate fails
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	if _, err := Read(strings.NewReader("0 1 1\n")); !errors.Is(err, ErrFormat) {
		t.Error("short line not wrapped as ErrFormat")
	}
	// Non-finite times are malformed fields: ErrFormat, naming the line.
	nonFinite := map[string]string{
		"0 1 NaN 10\n":                    "line 1",
		"0 1 5 Inf\n":                     "line 1",
		"0 1 -Inf 10\n":                   "line 1",
		"# duration: NaN\n0 1 1 2\n":      "line 1",
		"# duration: +Inf\n0 1 1 2\n":     "line 1",
		"0 1 5 10\n0 2 NaN 12\n0 3 1 2\n": "line 2",
	}
	for in, line := range nonFinite {
		_, err := Read(strings.NewReader(in))
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), line+":") {
			t.Errorf("Read(%q) = %v, want ErrFormat at %s", in, err, line)
		}
	}
}

func TestReadWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.contacts")
	if err := WriteFile(path, validTrace()); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N != 4 || len(tr.Contacts) != 4 {
		t.Fatalf("round trip: %+v", tr)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file accepted")
	}
}
