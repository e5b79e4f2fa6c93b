package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"freshcache/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden schema files under testdata/")

// jsonSchema flattens a value's JSON encoding into sorted "path: type"
// lines — a structural fingerprint that ignores the values themselves, so
// the goldens only move when a field is added, renamed or retyped.
func jsonSchema(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(b, &tree); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			seen[path+": object"] = true
			for k, val := range x {
				walk(path+"."+k, val)
			}
		case []any:
			seen[path+": array"] = true
			for _, val := range x {
				walk(path+"[]", val)
			}
		case string:
			seen[path+": string"] = true
		case float64:
			seen[path+": number"] = true
		case bool:
			seen[path+": bool"] = true
		default:
			seen[path+": null"] = true
		}
	}
	walk("$", tree)
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/obs -run Schema -update` to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s schema drifted from golden — a consumer-visible field changed.\n"+
			"If intentional, regenerate with -update and note it in DESIGN.md.\n got:\n%s\nwant:\n%s",
			name, got, want)
	}
}

func fullRegistrySnapshot() RegistrySnapshot {
	return RegistrySnapshot{Counters: map[string]int64{"example_counter": 7}}
}

// TestRegistrySnapshotSchema pins the serialized shape of RegistrySnapshot:
// manifests embed it and obsreport/CI parse it back.
func TestRegistrySnapshotSchema(t *testing.T) {
	checkGolden(t, "registry_snapshot.schema", jsonSchema(t, fullRegistrySnapshot()))
}

// fullManifest returns a manifest with every optional section populated.
func fullManifest() Manifest {
	hist := metrics.NewHist(metrics.DelayBuckets())
	hist.Observe(120)
	snap := fullRegistrySnapshot()
	return Manifest{
		Schema:       ManifestSchema,
		Tool:         "experiments",
		CreatedAt:    "2026-01-01T00:00:00Z",
		Command:      []string{"experiments", "-quick"},
		GoVersion:    "go0.0.0",
		GitRevision:  "deadbeef",
		GitModified:  true,
		OS:           "linux",
		Arch:         "amd64",
		GOMAXPROCS:   1,
		Seed:         42,
		Config:       map[string]any{"example": true},
		ConfigDigest: "deadbeefdeadbeef",
		Outputs:      []string{"out/table.csv"},

		WallClockSeconds: 1,
		CPUSeconds:       1,
		MaxRSSBytes:      1,

		Metrics: &snap,
		Events: &EventStats{Runs: 1, Seen: 1, Buffered: 1, Dropped: 1,
			Spans: 1, SpansDropped: 1, TimelinePoints: 1, TimelineDropped: 1},
		SchemeStats: []metrics.SchemeRollup{{
			Scheme: "hierarchical", Runs: 1, Transmissions: 9, Deliveries: 3,
			VersionsGenerated: 2, DeliveryDelayHist: hist, RefreshAgeHist: hist,
		}},
		Failures: []CellFailure{{Experiment: "E1", Preset: "reality-like",
			Point: 0, Scheme: "direct", Replicate: 0, Error: "boom"}},
		Resume: &ResumeSummary{Journal: "ckpt.jsonl", Resumed: true,
			CellsReplayed: 1, CellsExecuted: 1, CellsFailed: 1, CellsSkipped: 1},
		Cells: []CellCost{{Experiment: "E2", Preset: "infocom-like", Point: 0,
			Scheme: "direct", Replicate: 0, WallSeconds: 0.25, Mallocs: 1000,
			AllocBytes: 65536}},
	}
}

// TestManifestSchema pins the serialized shape of manifest.json with every
// optional section populated. obsreport, the CI obs jobs and external
// consumers all read this file, and the results store holds the same
// value one line per run; field renames are breaking changes.
func TestManifestSchema(t *testing.T) {
	m := fullManifest()
	checkGolden(t, "manifest.schema", jsonSchema(t, m))

	// The fixture must round-trip through ReadManifest and through the
	// store: the golden proves the shape, this proves both readers accept
	// it unchanged.
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tool != m.Tool || back.Seed != m.Seed || len(back.SchemeStats) != 1 {
		t.Errorf("round-trip mismatch: %+v", back)
	}
	if got := jsonSchema(t, back); got != jsonSchema(t, m) {
		t.Error("manifest schema changed across a Write/ReadManifest round-trip")
	}
	storePath := filepath.Join(dir, "store.jsonl")
	if err := m.Append(storePath); err != nil {
		t.Fatal(err)
	}
	stored, err := ReadStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 || !reflect.DeepEqual(stored[0], *back) {
		t.Errorf("the store line differs from manifest.json:\n%+v\n%+v", stored, *back)
	}
}

// TestManifestSchemaVersionGate makes the reader reject foreign schemas,
// so a future v2 cannot be silently misread as v1.
func TestManifestSchemaVersionGate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, []byte(fmt.Sprintf(`{"schema":"%s-v999"}`, ManifestSchema)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil {
		t.Error("ReadManifest accepted an unknown schema version")
	}
}
