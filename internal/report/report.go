// Package report renders the framework's results as aligned text
// tables, labeled matrices (the textual equivalent of the paper's
// heatmaps) and stdlib-only SVG charts.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// trimFloat renders floats compactly: integers without decimals,
// otherwise up to three significant decimals.
func trimFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return ""
	}
	return b.String()
}

// Matrix is a labeled 2-D grid, the textual form of the paper's
// heatmap figures (Figs. 6, 8, 10, 14).
type Matrix struct {
	Title     string
	RowLabel  string
	RowNames  []string
	ColNames  []string
	cells     map[[2]int]string
	CornerTag string
}

// NewMatrix creates an empty matrix with the given axes.
func NewMatrix(title string, rowNames, colNames []string) *Matrix {
	return &Matrix{
		Title:    title,
		RowNames: rowNames,
		ColNames: colNames,
		cells:    make(map[[2]int]string),
	}
}

// Set places a cell by row/column index; values are formatted like
// table cells.
func (m *Matrix) Set(row, col int, v interface{}) {
	switch x := v.(type) {
	case float64:
		m.cells[[2]int{row, col}] = trimFloat(x)
	case string:
		m.cells[[2]int{row, col}] = x
	default:
		m.cells[[2]int{row, col}] = fmt.Sprintf("%v", v)
	}
}

// Get returns the cell string ("" if unset).
func (m *Matrix) Get(row, col int) string { return m.cells[[2]int{row, col}] }

// String renders the matrix.
func (m *Matrix) String() string {
	t := NewTable(m.Title, append([]string{m.CornerTag}, m.ColNames...)...)
	for i, rn := range m.RowNames {
		row := make([]interface{}, 0, len(m.ColNames)+1)
		row = append(row, rn)
		for j := range m.ColNames {
			c := m.Get(i, j)
			if c == "" {
				c = "-"
			}
			row = append(row, c)
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Fmt1 formats a float with one decimal, the paper's usual precision
// for weeks.
func Fmt1(v float64) string { return fmt.Sprintf("%.1f", v) }

// Fmt2 formats a float with two decimals.
func Fmt2(v float64) string { return fmt.Sprintf("%.2f", v) }

// FmtSI renders large counts with K/M/B suffixes (1K, 10M, 1B), the
// paper's axis labels for chip quantities.
func FmtSI(v float64) string {
	switch {
	case v >= 1e9:
		return trimFloat(v/1e9) + "B"
	case v >= 1e6:
		return trimFloat(v/1e6) + "M"
	case v >= 1e3:
		return trimFloat(v/1e3) + "K"
	default:
		return trimFloat(v)
	}
}
