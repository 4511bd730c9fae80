package stats

import (
	"fmt"
	"strings"
)

// Series is one labelled curve of an experiment figure: y-values over a
// shared x-axis (e.g. response time over arrival rate).
type Series struct {
	Label  string
	Points []float64
	// CI holds the 95%-confidence half-widths of replicated points; nil for
	// single-run series. When present, cells render as "mean±ci".
	CI []float64
}

// Figure collects several series over one x-axis and renders them as the
// aligned text table the experiment harness prints for each paper figure.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// AddSeriesCI appends a curve with per-point 95%-confidence half-widths
// from replicated runs. A nil ci is a single-run series. It panics when
// the points, or a non-nil ci, differ in length from the x-axis: only a
// bug in the caller builds such a series.
func (f *Figure) AddSeriesCI(label string, points, ci []float64) {
	if len(points) != len(f.X) || ci != nil && len(ci) != len(f.X) {
		panic(fmt.Sprintf("stats: series %q has %d points and %d CI values, axis has %d",
			label, len(points), len(ci), len(f.X)))
	}
	f.Series = append(f.Series, Series{Label: label, Points: points, CI: ci})
}

// Render produces an aligned text table: one row per x value, one column per
// series.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	if f.YLabel != "" {
		fmt.Fprintf(&b, "(y: %s)\n", f.YLabel)
	}

	headers := make([]string, 0, len(f.Series)+1)
	headers = append(headers, f.XLabel)
	for _, s := range f.Series {
		headers = append(headers, s.Label)
	}
	rows := make([][]string, 1, len(f.X)+1)
	rows[0] = headers
	for r := range f.X {
		row := make([]string, len(headers))
		row[0] = trimNum(f.X[r])
		for c, s := range f.Series {
			row[c+1] = cellText(s.Points[r], s.CI, r, "%.2f")
		}
		rows = append(rows, row)
	}
	writeGrid(&b, rows)
	return b.String()
}

// writeGrid writes rows, the header first, right-aligned in columns as wide
// as their widest cell in bytes and separated by two spaces.
func writeGrid(b *strings.Builder, rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for c, cell := range row {
			widths[c] = max(widths[c], len(cell))
		}
	}
	for _, row := range rows {
		for c, cell := range row {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%*s", widths[c], cell)
		}
		b.WriteByte('\n')
	}
}

// cellText formats one cell, appending "±ci" when the series carries
// replication confidence intervals.
func cellText(v float64, ci []float64, i int, format string) string {
	if ci == nil {
		return fmt.Sprintf(format, v)
	}
	return fmt.Sprintf(format+"±"+format, v, ci[i])
}

// trimNum formats an x-axis value without trailing zeros.
func trimNum(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}

// Table is a labelled grid (e.g. the hit-ratio tables 4.2a/b): row labels ×
// column labels with float cells.
type Table struct {
	Title   string
	Corner  string
	Columns []string
	RowLbls []string
	Cells   [][]float64
	// CIs holds per-cell 95%-confidence half-widths from replicated runs;
	// nil until SetCI is first called. When present, cells render as
	// "mean±ci".
	CIs [][]float64
}

// NewTable allocates a table of the given shape with zeroed cells.
func NewTable(title, corner string, rows, cols []string) *Table {
	cells := make([][]float64, len(rows))
	for i := range cells {
		cells[i] = make([]float64, len(cols))
	}
	return &Table{Title: title, Corner: corner, Columns: cols, RowLbls: rows, Cells: cells}
}

// Set writes one cell.
func (t *Table) Set(row, col int, v float64) { t.Cells[row][col] = v }

// SetCI writes one cell together with the 95%-confidence half-width of its
// replicated mean.
func (t *Table) SetCI(row, col int, v, ci float64) {
	if t.CIs == nil {
		t.CIs = make([][]float64, len(t.RowLbls))
		for i := range t.CIs {
			t.CIs[i] = make([]float64, len(t.Columns))
		}
	}
	t.Cells[row][col] = v
	t.CIs[row][col] = ci
}

// Render produces an aligned text table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	rows := make([][]string, 1, len(t.RowLbls)+1)
	rows[0] = append([]string{t.Corner}, t.Columns...)
	for r, lbl := range t.RowLbls {
		row := make([]string, len(t.Columns)+1)
		row[0] = lbl
		for c := range t.Columns {
			var rowCI []float64
			if t.CIs != nil {
				rowCI = t.CIs[r]
			}
			row[c+1] = cellText(t.Cells[r][c], rowCI, c, "%.1f")
		}
		rows = append(rows, row)
	}
	writeGrid(&b, rows)
	return b.String()
}
