// Command bench is the repository benchmark. It runs one workload in its
// own process as a closed loop: one client runs units of work back to
// back (sweep-e2's unit fans out over two sweep workers), after an
// untimed warm-up unit. It checks every unit's output and prints one
// metric per line as `name value unit`, then, as its last line, a JSON
// object with the keys correct, attempted, failed and metrics.
//
//	go run . -workload reality-hier [-seed 42] [-seconds 25] [-trace 0|1]
//
// -trace 0 measures the end-to-end metrics; -trace 1 is a separate
// process that measures the per-layer metrics, so that tracing never
// touches the end-to-end numbers. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// goldenSeed is the seed whose outputs are pinned in testdata/golden.json.
// On any other seed the output check is that every unit of the invocation
// reproduces the warm-up unit exactly.
const goldenSeed = 42

//go:embed testdata/golden.json
var goldenJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", goldenSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 25, "how long the timed loop runs, in seconds")
	traced := fs.Int("trace", 0, "0 measures the end-to-end metrics, 1 the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "bench: need -workload one of %s, -seconds > 0 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var (
		rep *report
		err error
	)
	if *traced == 1 {
		rep, err = measureTraced(w, *seed, budget)
	} else {
		rep, err = measure(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	rep.provenance(w, *seed)
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !rep.correct {
		fmt.Fprintf(stderr, "bench: %s: output check failed: %s\n", w.name, strings.Join(rep.problems, "; "))
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// report is one invocation's result: its metrics in print order, the
// output check, and `# key: value` notes (provenance, sample counts,
// digests).
type report struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	names     []string
	metrics   map[string]metric
	notes     [][2]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{correct: true, metrics: map[string]metric{}} }

func (r *report) add(name string, value float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{value, unit}
}

func (r *report) note(key, format string, args ...any) {
	r.notes = append(r.notes, [2]string{key, fmt.Sprintf(format, args...)})
}

// fail records a failed output check; the invocation still reports, but
// says correct: false and exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// checkGolden compares a digest with the committed one at the golden seed.
func (r *report) checkGolden(seed int64, key, digest string) {
	r.note("digest "+key, "%s", digest)
	if seed != goldenSeed {
		return
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		r.fail("golden digests: %v", err)
		return
	}
	if want := golden[key]; digest != want {
		r.fail("%s digest %s, golden %s", key, digest, want)
	}
}

// provenance names the machine and build every number came from.
func (r *report) provenance(w *workload, seed int64) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	r.note("workload", "%s", w.name)
	r.note("seed", "%d", seed)
	r.note("cpu", "%s", cpuModel())
	r.note("nproc", "%d", runtime.NumCPU())
	r.note("gomaxprocs", "%d", runtime.GOMAXPROCS(0))
	r.note("go", "%s", runtime.Version())
	r.note("revision", "%s", rev)
	r.note("load", "closed loop, %d goroutine(s) of load", w.workers)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (r *report) print(w io.Writer) error {
	var b strings.Builder
	for _, n := range r.notes {
		fmt.Fprintf(&b, "# %s: %s\n", n[0], n[1])
	}
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Fprintf(&b, "%s %v %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// setupReps is how many times set-up repeats; setup_s is the median.
const setupReps = 3

// setupPhase generates and compiles the workload's traces setupReps times
// and keeps the last set. The medians are setup_s and its two layers.
func setupPhase(w *workload, seed int64) ([]*input, [3]float64, error) {
	var total, gen, comp []float64
	var ins []*input
	for i := 0; i < setupReps; i++ {
		ins = nil // let the previous repetition's traces go before timing the next
		runtime.GC()
		start := time.Now()
		var st setupTimes
		var err error
		ins, st, err = setup(w.traces(seed))
		if err != nil {
			return nil, [3]float64{}, err
		}
		total = append(total, time.Since(start).Seconds())
		gen = append(gen, st.generate.Seconds())
		comp = append(comp, st.compile.Seconds())
	}
	return ins, [3]float64{median(total), median(gen), median(comp)}, nil
}

// measure is the untraced invocation: the end-to-end metrics.
func measure(w *workload, seed int64, budget time.Duration) (*report, error) {
	rep := newReport()
	ins, setupS, err := setupPhase(w, seed)
	if err != nil {
		return nil, err
	}
	runs := w.runs(seed, ins)
	unit := func() (outcome, error) {
		if w.sweep != nil {
			return w.sweep(seed)
		}
		return execRuns(runs, nil)
	}

	warm, err := unit()
	if err != nil {
		return nil, fmt.Errorf("warm-up unit: %w", err)
	}
	key := w.name
	if w.sweep != nil {
		key += "/tables"
	}
	rep.checkGolden(seed, key, warm.digest)

	var secs, allocs, bytes []float64
	deadline := time.Now().Add(budget)
	for len(secs) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		o, err := unit()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		rep.attempted++
		switch {
		case err != nil:
			rep.failed++
			rep.fail("unit %d: %v", rep.attempted, err)
			continue
		case o.digest != warm.digest:
			rep.failed++
			rep.fail("unit %d: digest %s differs from the warm-up's %s", rep.attempted, o.digest, warm.digest)
			continue
		}
		secs = append(secs, elapsed.Seconds())
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	if len(secs) == 0 {
		return rep, nil
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	rep.note("samples", "%d units of %d simulation runs and %d simulated events", len(secs), len(runs), warm.events)
	rep.add("setup_s", setupS[0], "s")
	rep.add("run_p50_s", median(secs), "s")
	rep.add("allocs_per_run", median(allocs), "count")
	rep.add("bytes_per_run", median(bytes), "bytes")
	rep.add("peak_rss_mb", rss, "MiB")
	return rep, nil
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// median is the middle of xs, the mean of the middle two for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
