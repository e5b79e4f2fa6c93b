package expt

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

//go:embed testdata/e2_golden.json
var e2GoldenJSON []byte

// TestQuickE2Golden pins the simulated results. The quick E2 sweep's
// tables and its unsampled event trace, lineage, timeline and OpenMetrics
// exports must hash to the digests in testdata/e2_golden.json, taken on
// linux/amd64. A change that moves a simulated result must say so and
// replace the digests with the ones this test prints.
func TestQuickE2Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick E2 sweep with unsampled tracing")
	}
	if runtime.GOARCH != "amd64" {
		// Compilers for other architectures may fuse multiply-adds, which
		// moves floating-point results in the last bit.
		t.Skipf("digests are taken on amd64, not %s", runtime.GOARCH)
	}
	var want map[string]string
	if err := json.Unmarshal(e2GoldenJSON, &want); err != nil {
		t.Fatal(err)
	}
	ex := runExports(t, "E2", false)
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	got := map[string]string{
		"tables":      digest([]byte(strings.Join(ex.tables, "\n"))),
		"events":      digest(ex.events),
		"lineage":     digest(ex.lineage),
		"timeline":    digest(ex.timeline),
		"openmetrics": digest(ex.om),
	}
	for name, d := range got {
		if d != want[name] {
			out, _ := json.MarshalIndent(got, "", "  ")
			t.Fatalf("%s digest %s, golden %q; the run's digests:\n%s", name, d, want[name], out)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d digests, the test computes %d", len(want), len(got))
	}
}
