package obs

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"time"
)

// TimelineTickFlag defines the -timeline-tick flag on fs for every CLI
// that records timelines, and returns where the parsed tick is stored, in
// seconds (Config.TimelineTick). The flag takes a number of seconds
// ("3600") or a Go duration ("1h"); 0 leaves timelines off and a negative
// value asks for the automatic tick.
func TimelineTickFlag(fs *flag.FlagSet) *float64 {
	tick := new(float64)
	fs.Var((*secondsValue)(tick), "timeline-tick", "simulated-time telemetry sampling period, in seconds (3600) or as a duration (1h): snapshot freshness ratio, cumulative counts and per-node/item copy age every tick into timeline.csv in the -obs directory (0 = off, negative = auto tick of measurement-phase/240; requires -obs)")
	return tick
}

// secondsValue is a flag.Value holding seconds, parsed from either form.
type secondsValue float64

func (s *secondsValue) String() string { return strconv.FormatFloat(float64(*s), 'g', -1, 64) }

func (s *secondsValue) Set(v string) error {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		d, derr := time.ParseDuration(v)
		if derr != nil {
			return fmt.Errorf("%q is neither a number of seconds nor a duration such as 1h", v)
		}
		f = d.Seconds()
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("%q is not a finite number of seconds", v)
	}
	*s = secondsValue(f)
	return nil
}
