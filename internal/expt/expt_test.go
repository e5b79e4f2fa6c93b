package expt

import (
	"math"
	"strings"
	"testing"

	"freshcache/internal/stats"
)

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Header: []string{"a", "bee"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", "longer-cell")
	out := tab.Render()
	if !strings.Contains(out, "== T: demo ==") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "longer-cell") {
		t.Fatalf("missing cell: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("line count = %d: %q", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}}
	tab.AddRow("plain", "with,comma")
	csv := tab.CSV()
	want := "a,b\nplain,\"with,comma\"\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}

func TestCellFormats(t *testing.T) {
	if CellValue(0.123456789) != "0.1235" {
		t.Fatalf("float cell = %q", CellValue(0.123456789))
	}
	if CellValue(42) != "42" {
		t.Fatalf("int cell = %q", CellValue(42))
	}
	if CellValue("s") != "s" {
		t.Fatalf("string cell = %q", CellValue("s"))
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for i := 1; i <= 10; i++ {
		id := "E" + string(rune('0'+i))
		if i == 10 {
			id = "E10"
		}
		if !ids[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E7")
	if err != nil || e.ID != "E7" {
		t.Fatalf("ByID: %+v %v", e, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestScenarioDefaults(t *testing.T) {
	sc := defaultScenario("reality-like", 1).withDefaults()
	if sc.FreshnessWindow != sc.RefreshInterval {
		t.Fatalf("window default: %v", sc.FreshnessWindow)
	}
	if sc.Lifetime != 2*sc.RefreshInterval {
		t.Fatalf("lifetime default: %v", sc.Lifetime)
	}
	if sc.PReq != 0.9 {
		t.Fatalf("preq default: %v", sc.PReq)
	}
}

func TestScenarioCatalog(t *testing.T) {
	sc := defaultScenario("reality-like", 1)
	cat, err := sc.buildCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != sc.NumItems {
		t.Fatalf("catalog len = %d", cat.Len())
	}
	it, err := cat.Item(3)
	if err != nil || int(it.Source) != 3 {
		t.Fatalf("item 3: %+v %v", it, err)
	}
}

// Smoke-run every experiment in Quick mode: each must produce at least one
// non-empty table.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(Options{Seed: 42, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("empty table %s", tab.Title)
				}
				if len(tab.Header) == 0 {
					t.Fatalf("headerless table %s", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Fatalf("ragged row in %s: %v", tab.Title, row)
					}
				}
				t.Log("\n" + tab.Render())
			}
		})
	}
}

// TestTraceStatsRepeatable: the statistics E1 reports are bit-identical
// from call to call. Summed in map order, reality-like's mean pair rate
// and its inter-contact KS distance took dozens of distinct values over
// 50 calls.
func TestTraceStatsRepeatable(t *testing.T) {
	tr, err := genTrace("reality-like", 42)
	if err != nil {
		t.Fatal(err)
	}
	rate := tr.ComputeStats().MeanPairRate
	ks, err := stats.ExpFitKS(tr.InterContactGaps())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got := tr.ComputeStats().MeanPairRate; math.Float64bits(got) != math.Float64bits(rate) {
			t.Fatalf("call %d: MeanPairRate %v, first call %v", i, got, rate)
		}
		got, err := stats.ExpFitKS(tr.InterContactGaps())
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(ks) {
			t.Fatalf("call %d: KS distance %v, first call %v", i, got, ks)
		}
	}
}
