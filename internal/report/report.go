// Package report renders analysis results as aligned text tables, CSV,
// and simple ASCII charts, so every table and figure of the paper can be
// regenerated on a terminal.
package report

import (
	"fmt"
	"io"
	"strings"

	"govdns/internal/stats"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
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
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// BarChart renders labeled values as horizontal ASCII bars.
type BarChart struct {
	Title string
	// Width is the maximum bar width in characters (default 50).
	Width  int
	labels []string
	values []float64
}

// NewBarChart creates a chart.
func NewBarChart(title string) *BarChart {
	return &BarChart{Title: title, Width: 50}
}

// Add appends one bar.
func (c *BarChart) Add(label string, value float64) {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
}

// Write renders the chart.
func (c *BarChart) Write(w io.Writer) error {
	width := c.Width
	if width <= 0 {
		width = 50
	}
	maxVal, maxLabel := 0.0, 0
	for i, v := range c.values {
		if v > maxVal {
			maxVal = v
		}
		if len(c.labels[i]) > maxLabel {
			maxLabel = len(c.labels[i])
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for i, v := range c.values {
		bar := 0
		if maxVal > 0 {
			bar = int(v / maxVal * float64(width))
		}
		fmt.Fprintf(&b, "%-*s %10.2f |%s\n", maxLabel, c.labels[i], v, strings.Repeat("#", bar))
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCDF renders an empirical CDF as a two-column table with an ASCII
// fraction bar, suitable for the paper's CDF figures.
func WriteCDF(w io.Writer, title string, points []stats.CDFPoint) error {
	t := NewTable(title, "value", "P(X<=value)", "")
	for _, p := range points {
		bar := strings.Repeat("#", int(p.Fraction*40))
		t.AddRow(fmt.Sprintf("%.2f", p.Value), fmt.Sprintf("%.4f", p.Fraction), bar)
	}
	return t.Write(w)
}
