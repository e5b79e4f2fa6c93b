package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// storeManifest returns the full schema fixture with the given seed, so
// append order can be told apart.
func storeManifest(seed int64) *Manifest {
	m := fullManifest()
	m.Seed = seed
	return &m
}

// appendRaw appends text to the file at path, bypassing Append.
func appendRaw(t *testing.T, path, text string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(text); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "store.jsonl")
	for i := int64(0); i < 3; i++ {
		if err := storeManifest(i).Append(path); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte("\n")); n != 3 {
		t.Fatalf("store holds %d lines, want one per append", n)
	}
	// Builds with a retry policy wrote an "attempts" count on every cell
	// cost and cell failure, and builds before the counter-only registry
	// wrote its gauges and histograms; such a line still reads, without
	// them.
	appendRaw(t, path, legacyLine(t, storeManifest(3))+"\n")
	ms, err := ReadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Fatalf("read %d manifests, want 4", len(ms))
	}
	for i, m := range ms {
		if !reflect.DeepEqual(m, *storeManifest(int64(i))) {
			t.Errorf("manifest %d did not round-trip (append order lost?): %+v", i, m)
		}
	}
}

// legacyLine renders m as one store line with an "attempts" field added
// to each cell cost and cell failure, and a gauge and a histogram added
// to the metric snapshot.
func legacyLine(t *testing.T, m *Manifest) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cells", "cellFailures"} {
		list, _ := raw[key].([]any)
		if len(list) == 0 {
			t.Fatalf("fixture has no %s", key)
		}
		for _, entry := range list {
			entry.(map[string]any)["attempts"] = 2
		}
	}
	snap := raw["metrics"].(map[string]any)
	snap["gauges"] = map[string]any{"sweep/queue_depth": 0}
	snap["histograms"] = map[string]any{"eventsim/queue_depth": map[string]any{
		"bounds": []any{1, 2}, "counts": []any{0, 1, 0}, "total": 1, "sum": 2, "min": 2, "max": 2}}
	b, err = json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStoreConcurrentAppends models a -parallel 8 style fan-out of
// appenders sharing one store: every line must survive whole.
func TestStoreConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if err := storeManifest(int64(i)).Append(path); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	ms, err := ReadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != n*4 {
		t.Fatalf("read %d manifests, want %d (append tearing?)", len(ms), n*4)
	}
	perSeed := make(map[int64]int)
	for _, m := range ms {
		perSeed[m.Seed]++
	}
	for i := int64(0); i < n; i++ {
		if perSeed[i] != 4 {
			t.Errorf("seed %d: %d manifests, want 4", i, perSeed[i])
		}
	}
}

// TestStoreTornTrailingLine: a partial trailing line (a crash mid-append)
// is dropped; the whole lines before it still load.
func TestStoreTornTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	for i := int64(0); i < 2; i++ {
		if err := storeManifest(i).Append(path); err != nil {
			t.Fatal(err)
		}
	}
	appendRaw(t, path, `{"schema":"freshcache-manifest/1","tool":"exper`)
	ms, err := ReadStore(path)
	if err != nil {
		t.Fatalf("torn trailing line not tolerated: %v", err)
	}
	if len(ms) != 2 {
		t.Fatalf("read %d manifests, want the 2 whole ones", len(ms))
	}
}

// TestStoreMidFileCorruptionFails: with single-write appends only the
// trailing line can legitimately tear, so a malformed line followed by
// more data is real damage and must be an error, not a silent skip.
func TestStoreMidFileCorruptionFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := storeManifest(0).Append(path); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, path, "{broken\n")
	if err := storeManifest(1).Append(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStore(path); err == nil {
		t.Fatal("mid-file corruption read back without error")
	}
}

// TestStoreForeignSchemaRefused: a line written under another schema
// fails the read outright, and so does a record of the retired
// freshcache-store/1 format; Append refuses to write either.
func TestStoreForeignSchemaRefused(t *testing.T) {
	for _, line := range []string{
		`{"schema":"freshcache-manifest/999","tool":"future"}`,
		`{"schema":"freshcache-store/1","tool":"experiments","seed":42,"metrics":{"engine/contacts":510260}}`,
	} {
		path := filepath.Join(t.TempDir(), "store.jsonl")
		if err := storeManifest(0).Append(path); err != nil {
			t.Fatal(err)
		}
		appendRaw(t, path, line+"\n")
		if _, err := ReadStore(path); err == nil || !strings.Contains(err.Error(), "unsupported schema") {
			t.Errorf("%s: not refused: %v", line, err)
		}
	}
	for _, schema := range []string{"freshcache-manifest/999", "freshcache-store/1", ""} {
		m := storeManifest(0)
		m.Schema = schema
		if err := m.Append(filepath.Join(t.TempDir(), "s.jsonl")); err == nil {
			t.Errorf("Append accepted schema %q", schema)
		}
	}
}

func TestReadStoreMissingFile(t *testing.T) {
	if _, err := ReadStore(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Fatal("missing store read back without error")
	}
}

// FuzzReadStore feeds arbitrary bytes to the results-store reader.
// Whatever the file holds, ReadStore must not panic, and every manifest
// it accepts must survive Append and ReadStore again unchanged (compared
// by encoding, since omitempty drops empty collections). The seed corpus
// runs with the normal test suite; `go test -fuzz=FuzzReadStore
// ./internal/obs` explores further.
func FuzzReadStore(f *testing.F) {
	b, err := json.Marshal(storeManifest(1))
	if err != nil {
		f.Fatal(err)
	}
	whole := string(b) + "\n"
	f.Add(whole + whole)
	f.Add(whole + `{"schema":"freshcache-manifest/1","tool":"exper`) // torn trailing line
	f.Add(whole + "{broken\n" + whole)                               // mid-file corruption
	f.Add(whole + `{"schema":"freshcache-manifest/999","tool":"future"}` + "\n")
	f.Add(`{"schema":"freshcache-manifest/1","command":[],"metrics":{}}` + "\n")
	f.Add("null\n")
	f.Add("")
	f.Add(whole + `{"schema":"freshcache-store/1","metrics":{"engine/contacts":1}}` + "\n")
	f.Fuzz(func(t *testing.T, data string) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.jsonl")
		if err := os.WriteFile(in, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		ms, err := ReadStore(in)
		if err != nil || len(ms) == 0 {
			return
		}
		out := filepath.Join(dir, "out.jsonl")
		for i := range ms {
			if err := ms[i].Append(out); err != nil {
				t.Fatalf("accepted manifest %d does not append: %v", i, err)
			}
		}
		back, err := ReadStore(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(ms) {
			t.Fatalf("%d manifests read back, %d written", len(back), len(ms))
		}
		for i := range ms {
			want, err1 := json.Marshal(ms[i])
			got, err2 := json.Marshal(back[i])
			if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
				t.Fatalf("manifest %d changed across a round trip:\n%s\nvs\n%s", i, got, want)
			}
		}
	})
}
