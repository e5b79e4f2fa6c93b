// Command tracegen generates synthetic contact traces and writes them in
// the text format read by freshsim and the library.
//
// Usage:
//
//	tracegen -preset reality-like -seed 42 -out reality.contacts
//	tracegen -model community -nodes 60 -days 14 -out campus.contacts
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"freshcache/internal/mobility"
	"freshcache/internal/obs"
	"freshcache/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		preset = fs.String("preset", "", "built-in preset (reality-like, infocom-like); overrides -model")
		model  = fs.String("model", "community", "generator model: hetexp, community")
		nodes  = fs.Int("nodes", 60, "number of nodes")
		days   = fs.Float64("days", 14, "trace duration in days")
		seed   = fs.Int64("seed", 1, "random seed")
		out    = fs.String("out", "", "output file (default stdout)")
		obsDir = fs.String("obs", "", "directory for a provenance manifest.json (command, seed, outputs, toolchain)")

		// hetexp / community knobs.
		meanRate  = fs.Float64("rate", 4, "mean pairwise contacts per day (hetexp) / intra-community rate (community)")
		interRate = fs.Float64("interrate", 0.5, "inter-community contacts per day (community)")
		comms     = fs.Int("communities", 4, "number of communities (community)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	start := time.Now()

	var gen mobility.Generator
	switch {
	case *preset != "":
		g, err := mobility.Preset(*preset)
		if err != nil {
			return err
		}
		gen = g
	case *model == "hetexp":
		gen = &mobility.HeterogeneousExp{
			TraceName: "hetexp", N: *nodes, Duration: *days * mobility.Day,
			MeanRate: *meanRate / mobility.Day, RateShape: 0.7, PairFraction: 0.8,
			MeanContactDur: 120,
		}
	case *model == "community":
		gen = &mobility.Community{
			TraceName: "community", N: *nodes, Duration: *days * mobility.Day,
			Communities: *comms, IntraRate: *meanRate / mobility.Day,
			InterRate: *interRate / mobility.Day, RateShape: 0.7,
			InterPairFraction: 0.5, HubFraction: 0.08, HubBoost: 3,
			MeanContactDur: 180,
		}
	default:
		return fmt.Errorf("unknown model %q (have hetexp, community)", *model)
	}

	tr, err := gen.Generate(*seed)
	if err != nil {
		return err
	}
	err = func() error {
		if *out == "" {
			return trace.Write(os.Stdout, tr)
		}
		if err := trace.WriteFile(*out, tr); err != nil {
			return err
		}
		s := tr.ComputeStats()
		fmt.Printf("wrote %s: %d nodes, %.1f hours, %d contacts\n", *out, s.Nodes, s.DurationHours, s.Contacts)
		return nil
	}()
	if err != nil {
		return err
	}
	if *obsDir != "" {
		var outputs []string
		if *out != "" {
			outputs = []string{*out}
		}
		return obs.WriteToolManifest(*obsDir, "tracegen", args, *seed, outputs, start)
	}
	return nil
}
