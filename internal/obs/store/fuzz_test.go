package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the results-store reader. Whatever the
// file holds, Read must not panic, and every record it accepts must
// survive Append and Read again unchanged (compared by encoding, since
// omitempty drops empty collections). The seed corpus runs with the
// normal test suite; `go test -fuzz=FuzzRead ./internal/obs/store`
// explores further.
func FuzzRead(f *testing.F) {
	b, err := json.Marshal(fullRecord(1))
	if err != nil {
		f.Fatal(err)
	}
	whole := string(b) + "\n"
	f.Add(whole + whole)
	f.Add(whole + `{"schema":"freshcache-store/1","tool":"exper`) // torn trailing record
	f.Add(whole + "{broken\n" + whole)                            // mid-file corruption
	f.Add(whole + `{"schema":"freshcache-store/999","tool":"future"}` + "\n")
	f.Add(`{"schema":"freshcache-store/1","command":[],"metrics":{}}` + "\n")
	f.Add("null\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.jsonl")
		if err := os.WriteFile(in, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := Read(in)
		if err != nil || len(recs) == 0 {
			return
		}
		out := filepath.Join(dir, "out.jsonl")
		for i := range recs {
			if err := Append(out, &recs[i]); err != nil {
				t.Fatalf("accepted record %d does not append: %v", i, err)
			}
		}
		back, err := Read(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(recs) {
			t.Fatalf("%d records read back, %d written", len(back), len(recs))
		}
		for i := range recs {
			want, err1 := json.Marshal(recs[i])
			got, err2 := json.Marshal(back[i])
			if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
				t.Fatalf("record %d changed across a round trip:\n%s\nvs\n%s", i, got, want)
			}
		}
	})
}
