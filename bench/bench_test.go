package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"testing"

	"freshcache/internal/core"
	"freshcache/internal/expt"
	"freshcache/internal/stats"
)

// benchmarkSpec is the part of ../BENCHMARK.json the binary must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkEmitted fails unless the report emits exactly the declared metrics,
// each with its declared unit.
func checkEmitted(t *testing.T, rep *report, declared []struct{ Name, Unit string }) {
	t.Helper()
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	for name, m := range rep.metrics {
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("emits %s, which BENCHMARK.json does not list", name)
		case unit != m.Unit:
			t.Errorf("%s: emitted unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := rep.metrics[name]; !ok {
			t.Errorf("BENCHMARK.json lists %s, which is not emitted", name)
		}
	}
}

// TestWorkloads runs every workload once at its real size in both modes:
// the seed-42 digests match, the traced results equal the untraced ones,
// the spans reconcile, and the emitted metrics are exactly the ones
// BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	spec := readSpec(t)
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	if got := workloadNames(); !slices.Equal(got, listed) {
		t.Fatalf("binary workloads %v, BENCHMARK.json %v", got, listed)
	}
	for _, name := range listed {
		w := workloads[name]
		t.Run(name, func(t *testing.T) {
			rep, err := measure(w, goldenSeed, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct {
				t.Errorf("untraced output check: %v", rep.problems)
			}
			checkEmitted(t, rep, spec.EndToEnd)

			rep, err = measureTraced(w, goldenSeed, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct {
				t.Errorf("traced output check: %v", rep.problems)
			}
			if e := rep.metrics["trace.reconcile_err_frac"].Value; !(e < 0.01) {
				t.Errorf("spans reconcile to within %.4f of the cell wall time, want < 0.01", e)
			}
			checkEmitted(t, rep, spec.PerLayer)
		})
	}
}

// TestAllocsRepeat checks that the workloads without core.Reuse allocate
// the same number of objects every time, after a warm-up run has paid the
// process's one-time initialization. A few objects in a million may move:
// fmt's sync.Pool buffers and maps with randomized hashing.
func TestAllocsRepeat(t *testing.T) {
	for _, name := range []string{"reality-hier", "reality-obs", "largen-5k"} {
		w := workloads[name]
		t.Run(name, func(t *testing.T) {
			ins, _, err := setup(w.traces(goldenSeed))
			if err != nil {
				t.Fatal(err)
			}
			runs := w.runs(goldenSeed, ins)
			var counts [4]float64
			for i := range counts {
				runtime.GC()
				before := mallocs()
				if _, err := execRuns(runs, nil); err != nil {
					t.Fatal(err)
				}
				counts[i] = float64(mallocs() - before)
			}
			c := counts[1:]
			if lo, hi := slices.Min(c), slices.Max(c); hi-lo > hi*1e-4 {
				t.Errorf("allocations differ by more than 1 in 10,000 between identical runs: %v", c)
			}
		})
	}
}

// TestSweepReplica checks that the bench's replica of E2's cells, which
// the traced invocation times, reproduces every cell of the real E2
// tables: the mean and standard error over the replicates, rendered as
// E2 renders them.
func TestSweepReplica(t *testing.T) {
	w := workloads["sweep-e2"]
	ins, _, err := setup(w.traces(goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := runE2(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := execRuns(w.runs(goldenSeed, ins), core.NewReuse())
	if err != nil {
		t.Fatal(err)
	}
	outs := replica.outs
	for _, tab := range e2.tables {
		for _, row := range tab.Rows {
			for _, cell := range row[1:] {
				if len(outs) < e2Replicates {
					t.Fatalf("E2 has more cells than the replica")
				}
				xs := make([]float64, e2Replicates)
				for i := range xs {
					xs[i] = outs[i].Result.FreshnessRatio
				}
				outs = outs[e2Replicates:]
				if got := meanStderr(xs); got != cell {
					t.Errorf("%s: replica %s, E2 %s", tab.Title, got, cell)
				}
			}
		}
	}
	if len(outs) != 0 {
		t.Errorf("the replica has %d runs more than E2", len(outs))
	}
}

// meanStderr renders replicate values the way expt's sweep tables do.
func meanStderr(xs []float64) string {
	m := stats.Mean(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	n := float64(len(xs))
	return expt.CellValue(m) + "±" + expt.CellValue(math.Sqrt(ss/(n-1))/math.Sqrt(n))
}

// TestFlags checks that a bad invocation exits non-zero without a result.
func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "reality-hier", "-trace", "2"},
		{"-workload", "reality-hier", "-seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
