// Command traceinfo reports aggregate statistics of a contact trace and
// the centrality ranking of its nodes — the inputs to caching-node (NCL)
// selection.
//
// Usage:
//
//	traceinfo campus.contacts
//	traceinfo -top 10 -window 6h campus.contacts
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"freshcache/internal/centrality"
	"freshcache/internal/obs"
	"freshcache/internal/stats"
	"freshcache/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "traceinfo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("traceinfo", flag.ContinueOnError)
	var (
		top    = fs.Int("top", 10, "how many central nodes to list")
		window = fs.Duration("window", 6*time.Hour, "centrality contact window")
		obsDir = fs.String("obs", "", "directory for a provenance manifest.json (command, inputs, toolchain)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	start := time.Now()
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: traceinfo [flags] <trace-file>")
	}
	if *window <= 0 {
		return fmt.Errorf("-window must be positive, got %s", *window)
	}
	tr, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	s := tr.ComputeStats()
	fmt.Printf("trace:            %s\n", s.Name)
	fmt.Printf("nodes:            %d\n", s.Nodes)
	fmt.Printf("duration:         %.1f hours\n", s.DurationHours)
	fmt.Printf("contacts:         %d\n", s.Contacts)
	fmt.Printf("meeting pairs:    %d (%.1f%% of all pairs)\n", s.MeetingPairs, 100*s.PairCoverage)
	fmt.Printf("contacts/pair:    %.2f\n", s.ContactsPerPair)
	fmt.Printf("mean pair rate:   %.3f contacts/day\n", s.MeanPairRate*86400)
	fmt.Printf("mean contact:     %.0f s\n", s.MeanContactDur)

	// Inter-contact time distribution over all meeting pairs.
	gaps := tr.InterContactGaps()
	if len(gaps) > 0 {
		sum := stats.Summarize(gaps)
		fmt.Printf("inter-contact:    median %.1f h, mean %.1f h, p90 %.1f h\n",
			sum.Median/3600, sum.Mean/3600, sum.P90/3600)
		if ks, err := stats.ExpFitKS(gaps); err == nil {
			fmt.Printf("exponential fit:  KS distance %.3f (small ⇒ Poisson contacts; the analytical model applies)\n", ks)
		}
	}

	printActivity(tr)

	rates, err := centrality.FromTrace(tr, 0, tr.Duration)
	if err != nil {
		return err
	}
	scores := centrality.Scores(rates, window.Seconds())
	rank := centrality.Rank(scores)
	if *top > len(rank) {
		*top = len(rank)
	}
	fmt.Printf("\ntop %d nodes by cumulative-contact centrality (window %s):\n", *top, window)
	for i := 0; i < *top; i++ {
		fmt.Printf("  %2d. node %3d  score %.4f\n", i+1, rank[i], scores[rank[i]])
	}

	sel, err := centrality.SelectCachingNodes(rates, window.Seconds(), *top)
	if err != nil {
		return err
	}
	fmt.Printf("\ngreedy coverage selection of %d caching nodes: %v\n", *top, sel)
	if *obsDir != "" {
		return obs.WriteToolManifest(*obsDir, "traceinfo", args, 0, nil, start)
	}
	return nil
}

// printActivity renders a day-by-day contact activity bar chart — the
// quickest way to spot diurnal cycles and dead periods in a trace.
func printActivity(tr *trace.Trace) {
	const day = 86400.0
	days := int(tr.Duration/day) + 1
	if days < 2 || days > 120 {
		return
	}
	counts := make([]int, days)
	maxCount := 0
	for _, c := range tr.Contacts {
		d := int(c.Start / day)
		counts[d]++
		if counts[d] > maxCount {
			maxCount = counts[d]
		}
	}
	if maxCount == 0 {
		return
	}
	fmt.Printf("\ncontacts per day (max %d):\n", maxCount)
	for d, n := range counts {
		bar := strings.Repeat("#", n*50/maxCount)
		fmt.Printf("  day %3d %-50s %d\n", d, bar, n)
	}
}
