package main

import (
	"fmt"
	"strings"
)

// table is a formatted experiment result.
type table struct {
	// ID is the experiment identifier (e.g. "E1").
	ID string
	// Title describes what the table shows and which claim it checks.
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows hold the formatted cells.
	Rows [][]string
	// Notes are printed under the table (expected shape, caveats).
	Notes []string
}

// AddRow appends a row of cells formatted with %v.
func (t *table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmtFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	if len(row) != len(t.Columns) {
		panic(fmt.Sprintf("cgbench: row with %d cells for %d columns", len(row), len(t.Columns)))
	}
	t.Rows = append(t.Rows, row)
}

func fmtFloat(v float64) string {
	a := v
	if a < 0 {
		a = -a
	}
	switch {
	case v == 0:
		return "0"
	case a >= 1e5 || a < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Format renders the table as aligned text.
func (t *table) Format() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (header + rows).
func (t *table) CSV() string {
	var sb strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = esc(c)
	}
	sb.WriteString(strings.Join(cols, ","))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		sb.WriteString(strings.Join(cells, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}
