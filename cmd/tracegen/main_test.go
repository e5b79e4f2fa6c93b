package main

import (
	"path/filepath"
	"testing"

	"freshcache/internal/trace"
)

func TestRunPreset(t *testing.T) {
	out := filepath.Join(t.TempDir(), "p.contacts")
	if err := run([]string{"-preset", "infocom-like", "-seed", "3", "-out", out}); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N != 78 {
		t.Fatalf("N = %d", tr.N)
	}
}

func TestRunModels(t *testing.T) {
	for _, model := range []string{"hetexp", "community"} {
		out := filepath.Join(t.TempDir(), model+".contacts")
		if err := run([]string{"-model", model, "-nodes", "15", "-days", "2", "-out", out}); err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		tr, err := trace.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if tr.N != 15 || len(tr.Contacts) == 0 {
			t.Fatalf("%s: %d nodes, %d contacts", model, tr.N, len(tr.Contacts))
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-model", "bogus"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if err := run([]string{"-preset", "bogus"}); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}
