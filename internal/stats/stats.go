// Package stats provides the small statistics and table-formatting kit
// shared by the experiment harnesses: mean/standard deviation for the
// fairness figures, speedup normalization for the application tables,
// and aligned-text / CSV rendering.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 for
// fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// StdDevPct returns the standard deviation as a percentage of the mean
// — the fairness metric of the paper's Figure 5. It returns 0 when the
// mean is 0.
func StdDevPct(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return 100 * StdDev(xs) / m
}

// Speedup normalizes value against base, returning 0 if base is 0 —
// the Table 1/2 "speedup over single-threaded pthread" convention.
func Speedup(base, value float64) float64 {
	if base == 0 {
		return 0
	}
	return value / base
}

// Table accumulates rows for one experiment and renders them as
// aligned text (for terminals and Markdown notes) or CSV.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header width are kept, short
// rows are padded when rendered.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Rows reports how many data rows have been added.
func (t *Table) Rows() int { return len(t.rows) }

// Render returns the table as aligned text.
func (t *Table) Render() string {
	ncol := len(t.Headers)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	cell := func(r []string, i int) string {
		if i < len(r) {
			return r[i]
		}
		return ""
	}
	for i := 0; i < ncol; i++ {
		w := len(cell(t.Headers, i))
		for _, r := range t.rows {
			if l := len(cell(r, i)); l > w {
				w = l
			}
		}
		widths[i] = w
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	writeRow := func(r []string) {
		for i := 0; i < ncol; i++ {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell(r, i))
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV returns the table in comma-separated form (naive quoting: cells
// are produced by the harnesses and never contain commas).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteString("\n")
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// F formats a float with the given decimals — the harnesses' cell
// formatter.
func F(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}
