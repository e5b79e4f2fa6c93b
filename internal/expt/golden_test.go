package expt

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"testing"

	"freshcache/internal/metrics"
	"freshcache/internal/obs"
)

var (
	//go:embed testdata/e2_golden.json
	e2GoldenJSON []byte
	//go:embed testdata/e11_golden.json
	e11GoldenJSON []byte
	//go:embed testdata/e14_golden.json
	e14GoldenJSON []byte
	//go:embed testdata/e16_golden.json
	e16GoldenJSON []byte
	//go:embed testdata/e18_golden.json
	e18GoldenJSON []byte
)

// checkQuickGolden runs one quick experiment with unsampled tracing and
// compares the SHA-256 digests of its tables and of the named exports
// with the golden file, taken on linux/amd64. The exports are hashed as
// they are written, never buffered: quick E11 writes over 100 MB of
// events. A change that moves a simulated result must say so and replace
// the digests with the ones this test prints.
func checkQuickGolden(t *testing.T, id string, golden []byte, exports ...string) {
	t.Helper()
	if testing.Short() {
		t.Skipf("runs the quick %s sweep with unsampled tracing", id)
	}
	if runtime.GOARCH != "amd64" {
		// Compilers for other architectures may fuse multiply-adds, which
		// moves floating-point results in the last bit.
		t.Skipf("digests are taken on amd64, not %s", runtime.GOARCH)
	}
	var want map[string]string
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver(obs.Config{SampleEvery: 1, Lineage: true, TimelineTick: 6 * 3600})
	ledger := &Ledger{}
	tables, err := e.Run(Options{
		Seed: 42, Quick: true, Parallel: 4,
		Stats: metrics.NewRunStats(), Obs: o, Ledger: ledger,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sweep counters are folded in as RunFlags.Finish folds them.
	ledger.AddTo(o.Metrics)
	csv := make([]string, len(tables))
	for i, tb := range tables {
		csv[i] = tb.CSV()
	}
	digest := func(write func(io.Writer) error) string {
		h := sha256.New()
		if err := write(h); err != nil {
			t.Fatalf("%s export: %v", id, err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	writers := map[string]func(io.Writer) error{
		"events":   o.WriteJSONL,
		"chrome":   o.WriteChromeTrace,
		"lineage":  o.WriteLineageJSONL,
		"timeline": o.WriteTimelineCSV,
		"openmetrics": func(w io.Writer) error {
			return obs.WriteOpenMetrics(w, o.Metrics.Snapshot())
		},
	}
	got := map[string]string{
		"tables": digest(func(w io.Writer) error {
			_, err := io.WriteString(w, strings.Join(csv, "\n"))
			return err
		}),
	}
	for _, name := range exports {
		got[name] = digest(writers[name])
	}
	for name, d := range got {
		if d != want[name] {
			out, _ := json.MarshalIndent(got, "", "  ")
			t.Fatalf("%s %s digest %s, golden %q; the run's digests:\n%s", id, name, d, want[name], out)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s golden file has %d digests, the test computes %d", id, len(want), len(got))
	}
}

// TestQuickE2Golden pins the quick E2 sweep's tables and its unsampled
// event trace, Chrome trace, lineage, timeline and OpenMetrics exports.
func TestQuickE2Golden(t *testing.T) {
	checkQuickGolden(t, "E2", e2GoldenJSON, "events", "chrome", "lineage", "timeline", "openmetrics")
}

// TestQuickE11Golden pins quick E11 (churn and message loss), whose
// serving order depends on loss draws and on nodes going down mid-run:
// its tables and every export, as for E2.
func TestQuickE11Golden(t *testing.T) {
	checkQuickGolden(t, "E11", e11GoldenJSON, "events", "chrome", "lineage", "timeline", "openmetrics")
}

// TestQuickE14Golden pins quick E14 (periodic rebuilds on a drifting
// trace), the only experiment whose runs rebuild their refresh trees
// mid-run: its tables and every export, as for E2, so the rebuilds'
// dispatch order and their duty reassignments are pinned.
func TestQuickE14Golden(t *testing.T) {
	checkQuickGolden(t, "E14", e14GoldenJSON, "events", "chrome", "lineage", "timeline", "openmetrics")
}

// TestQuickE16Golden pins quick E16 (LRU and LFU stores under capacity),
// whose eviction order depends on every lookup a served query makes: its
// tables and every export, as for E2.
func TestQuickE16Golden(t *testing.T) {
	checkQuickGolden(t, "E16", e16GoldenJSON, "events", "chrome", "lineage", "timeline", "openmetrics")
}

// TestQuickE18Golden pins quick E18 (query delegation), which shares the
// contact budget between direct serving and relayed fetches: its tables
// and every export, as for E2.
func TestQuickE18Golden(t *testing.T) {
	checkQuickGolden(t, "E18", e18GoldenJSON, "events", "chrome", "lineage", "timeline", "openmetrics")
}
