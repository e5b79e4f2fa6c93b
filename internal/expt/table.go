// Package expt defines the reproduction's experiment suite (E1…E21 in
// DESIGN.md): named, parameterized simulation sweeps that regenerate each
// table and figure of the paper's evaluation, and the plain-text / CSV
// rendering used by cmd/experiments and the benchmarks.
package expt

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Table is one rendered experiment output: a figure's data series (first
// column is the x-axis) or a results table.
type Table struct {
	ID     string // experiment id, e.g. "E2"
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row, converting each cell with CellValue.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = CellValue(c)
	}
	t.Rows = append(t.Rows, row)
}

// CellValue renders one value for table output: floats with 4 significant
// digits, everything else via fmt. NaN — the aggregate of a sweep cell
// whose every replicate failed under -keep-going — renders as the explicit
// "NA" hole, so partial tables are unambiguous.
func CellValue(v any) string {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) {
			return "NA"
		}
		return strconv.FormatFloat(x, 'g', 4, 64)
	case float32:
		if math.IsNaN(float64(x)) {
			return "NA"
		}
		return strconv.FormatFloat(float64(x), 'g', 4, 64)
	case string:
		return x
	default:
		return fmt.Sprint(v)
	}
}

// Render returns the table as aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV returns the table as comma-separated values (header first). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString(strconv.Quote(cell))
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
