package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// WriteOpenMetrics renders a registry snapshot in OpenMetrics text format
// (the Prometheus exposition superset): counters in sorted name order,
// each with the mandatory `_total` suffix, terminated by `# EOF`. Metric
// names are prefixed `freshcache_` and sanitized (every non [a-zA-Z0-9_]
// byte maps to '_'), so registry names like "sweep/cells_done" become
// "freshcache_sweep_cells_done".
//
// The snapshot should be taken after all runs finish, when every total
// has been added.
func WriteOpenMetrics(w io.Writer, snap RegistrySnapshot) error {
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		om := openMetricsName(name)
		bw.WriteString("# TYPE " + om + " counter\n")
		bw.WriteString(om + "_total " + strconv.FormatInt(snap.Counters[name], 10) + "\n")
	}
	bw.WriteString("# EOF\n")
	return bw.Flush()
}

// openMetricsName prefixes and sanitizes a registry metric name.
func openMetricsName(name string) string {
	out := make([]byte, 0, len(name)+11)
	out = append(out, "freshcache_"...)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
