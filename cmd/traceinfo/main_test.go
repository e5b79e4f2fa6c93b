package main

import (
	"path/filepath"
	"testing"

	"freshcache/internal/mobility"
	"freshcache/internal/trace"
)

func infoTraceFile(t *testing.T) string {
	t.Helper()
	g := &mobility.HeterogeneousExp{
		TraceName: "info", N: 20, Duration: 3 * mobility.Day,
		MeanRate: 5.0 / mobility.Day, RateShape: 0.8, PairFraction: 0.8, MeanContactDur: 90,
	}
	tr, err := g.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "info.contacts")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunInfo(t *testing.T) {
	if err := run([]string{infoTraceFile(t)}); err != nil {
		t.Fatal(err)
	}
}

func TestRunInfoTopWindow(t *testing.T) {
	if err := run([]string{"-top", "5", "-window", "2h", infoTraceFile(t)}); err != nil {
		t.Fatal(err)
	}
}

func TestRunInfoErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"a", "b"}); err == nil {
		t.Fatal("two files accepted")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Fatal("missing file accepted")
	}
	for _, w := range []string{"0s", "-1h"} {
		if err := run([]string{"-window", w, infoTraceFile(t)}); err == nil {
			t.Fatalf("-window %s accepted", w)
		}
	}
}
