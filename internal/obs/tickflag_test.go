package obs

import (
	"flag"
	"io"
	"testing"
)

func TestTimelineTickFlag(t *testing.T) {
	for in, want := range map[string]float64{
		"3600": 3600, "1h": 3600, "90m": 5400, "0.5": 0.5, "0": 0, "-1": -1, "-1h": -3600,
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		tick := TimelineTickFlag(fs)
		if err := fs.Parse([]string{"-timeline-tick", in}); err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if *tick != want {
			t.Fatalf("%q parsed as %v, want %v", in, *tick, want)
		}
	}
	for _, in := range []string{"NaN", "Inf", "-Inf", "1 h", "hour", ""} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		TimelineTickFlag(fs)
		if err := fs.Parse([]string{"-timeline-tick", in}); err == nil {
			t.Fatalf("%q accepted", in)
		}
	}
}
