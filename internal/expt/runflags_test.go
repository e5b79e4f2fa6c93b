package expt

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestRunFlagsCheck: the shared flags reject values that cannot work or
// would silently mean "off", and accept every combination that works.
func TestRunFlagsCheck(t *testing.T) {
	for _, tc := range []struct {
		args string
		ok   bool
	}{
		{"", true},
		{"-obs o -obs-sample 4 -obs-buffer 1 -lineage -timeline-tick 1h", true},
		{"-obs o -timeline-tick -1", true},
		{"-checkpoint c -resume", true},
		{"-store s -cpuprofile p -memprofile m", true},
		{"-obs-sample 0", false},
		{"-obs-sample -1", false},
		{"-obs-buffer 0", false},
		{"-obs-buffer -1", false},
		{"-resume", false},
		{"-lineage", false},
		{"-timeline-tick 1h", false},
		{"-timeline-tick -1", false},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := NewRunFlags(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if err := f.check(); (err == nil) != tc.ok {
			t.Errorf("%q: check() = %v, want ok=%v", tc.args, err, tc.ok)
		}
	}
}
