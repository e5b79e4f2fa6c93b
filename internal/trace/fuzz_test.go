package trace

import (
	"math"
	"strings"
	"testing"
)

// Fuzz targets for the two parsers: whatever bytes arrive, the readers
// must either return an error or a trace that passes Validate and whose
// times are all finite — never panic, never return corrupt data. The seed
// corpus runs as part of the normal test suite; `go test -fuzz=FuzzRead
// ./internal/trace` explores further.

// checkAccepted fails the fuzz target if reader accepted in as a trace
// that Validate rejects or that holds a NaN or infinite time.
func checkAccepted(t *testing.T, reader string, tr *Trace, in string) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s accepted invalid trace: %v\ninput: %q", reader, err, in)
	}
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	if !finite(tr.Duration) {
		t.Fatalf("%s accepted duration %v\ninput: %q", reader, tr.Duration, in)
	}
	for i, c := range tr.Contacts {
		if !finite(c.Start) || !finite(c.End) {
			t.Fatalf("%s accepted contact #%d %+v\ninput: %q", reader, i, c, in)
		}
	}
}

func FuzzRead(f *testing.F) {
	f.Add("# name: x\n# nodes: 3\n0 1 5 10\n")
	f.Add("0 1 5 10\n2 1 20 25\n")
	f.Add("# duration: 100\n")
	f.Add("0 0 1 2\n")
	f.Add("a b c d\n")
	f.Add("0 1 10 5\n") // end before start
	f.Add("# nodes: -5\n0 1 1 2\n")
	f.Add("0 1 1e308 1e309\n")
	f.Add("0 1 NaN 10\n")
	f.Add("0 1 5 Inf\n")
	f.Add("# duration: NaN\n0 1 1 2\n")
	f.Add("0 1 5 10\n0 2 NaN 12\n0 3 1 2\n")
	f.Add("\x00\x01\x02")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		checkAccepted(t, "Read", tr, in)
	})
}

func FuzzReadONE(f *testing.F) {
	f.Add("10 CONN 0 1 up\n20 CONN 0 1 down\n")
	f.Add("10 CONN n1 p2 up\n")
	f.Add("5 CONN 0 1 down\n")
	f.Add("x CONN 0 1 up\n")
	f.Add("10 MSG 0 1 whatever\n")
	f.Add("10 CONN 0 0 up\n")
	f.Add("1e308 CONN 0 1 up\n")
	f.Add("10 CONN 0 1 up\nInf CONN 0 2 up\n")
	f.Add("NaN CONN 0 1 up\n20 CONN 0 1 down\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadONE(strings.NewReader(in))
		if err != nil {
			return
		}
		checkAccepted(t, "ReadONE", tr, in)
	})
}

func FuzzReadAuto(f *testing.F) {
	f.Add("# c\n0 1 5 10\n")
	f.Add("10 CONN 0 1 up\n20 CONN 0 1 down\n")
	f.Add("")
	f.Add("# only a comment\n")
	f.Add("# duration: Inf\n0 1 NaN 10\n")
	f.Add("10 CONN 0 1 up\n+Inf CONN 0 1 down\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadAuto(strings.NewReader(in))
		if err != nil {
			return
		}
		checkAccepted(t, "ReadAuto", tr, in)
	})
}
