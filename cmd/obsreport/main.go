// Command obsreport turns the observability artifacts of a run (lineage
// spans, telemetry timelines, the manifest) into a human-readable report,
// diffs two runs against regression thresholds, and reads the cross-run
// results store.
//
// Usage:
//
//	obsreport report out/obs               # per-run lineage + timeline report
//	obsreport report -json out/obs         # machine-readable report
//	obsreport diff out/a out/b             # compare manifests, exit 2 on regression
//	obsreport diff -tolerance 2 out/a out/b
//
// The trend and query subcommands read the cross-run results store: the
// JSONL to which `experiments -store` and `freshsim -store` append each
// run's manifest, one line per run:
//
//	obsreport query store.jsonl                          # list stored records
//	obsreport query -metrics store.jsonl                 # list stored metric names
//	obsreport trend -metric engine/contacts store.jsonl  # metric trajectory + sparkline
//
// Exit status: 0 on success (diff: within tolerance), 1 on usage or I/O
// errors, 2 when diff finds a regression beyond the tolerance. A
// tolerance must be a finite percentage >= 0; NaN, ±Inf and negative
// values are usage errors (against NaN or +Inf nothing could regress).
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// errRegression marks a diff that exceeded the tolerance; main maps it to
// exit status 2 so CI can distinguish "worse" from "broken".
var errRegression = errors.New("regression beyond tolerance")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		if errors.Is(err, errRegression) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: obsreport <report|diff|trend|query> [flags] <dir|store> [<dir>]")
	}
	switch args[0] {
	case "report":
		return runReport(args[1:], out)
	case "diff":
		return runDiff(args[1:], out)
	case "trend":
		return runTrend(args[1:], out)
	case "query":
		return runQuery(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want report, diff, trend or query)", args[0])
	}
}
