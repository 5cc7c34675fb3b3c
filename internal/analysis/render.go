// Package analysis regenerates every table and figure of the paper's
// evaluation (Section 6, plus the Table 1 bounds summary of Section 2) from
// the exact formulas implemented in core/combin, and provides the ablation
// and validation studies beside them. Generators return structured Tables
// and Figures; render helpers emit Markdown, CSV and ASCII plots, which the
// pqs-experiments command prints (`make paper` commits them as
// EXPERIMENTS.md) and writes to disk.
package analysis

import (
	"fmt"
	"math"
	"strings"
)

// Table is a rendered-agnostic result table.
type Table struct {
	// ID is a short stable identifier, e.g. "table2".
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, already formatted.
	Rows [][]string
	// Notes are free-form footnotes (deviations, parameter choices).
	Notes []string
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", strings.ToUpper(t.ID[:1])+t.ID[1:], t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values. Cells containing commas
// are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// Series is one named curve of a figure. X and Y have equal length.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a rendered-agnostic plot: a set of series over a shared domain.
type Figure struct {
	// ID is a short stable identifier, e.g. "figure1-left".
	ID string
	// Title describes the plot.
	Title  string
	XLabel string
	YLabel string
	// LogY plots log10(y); values are clamped at 1e-16 for display.
	LogY   bool
	Series []Series
	Notes  []string
}

// CSV renders the figure as one x column plus one column per series.
// All series must share the same X grid (the generators guarantee this).
func (f *Figure) CSV() string {
	var b strings.Builder
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	writeCSVRow(&b, header)
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].X {
		row := []string{formatFloat(f.Series[0].X[i])}
		for _, s := range f.Series {
			row = append(row, formatFloat(s.Y[i]))
		}
		writeCSVRow(&b, row)
	}
	return b.String()
}

func formatFloat(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// ASCII renders the figure as a text plot of the given interior size.
// Series are drawn with markers 1..9/a..z in declaration order; later series
// overwrite earlier ones where they collide.
func (f *Figure) ASCII(width, height int) string {
	if width < 10 {
		width = 10
	}
	if height < 5 {
		height = 5
	}
	const floorY = 1e-16
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	tr := func(y float64) float64 {
		if !f.LogY {
			return y
		}
		if y < floorY {
			y = floorY
		}
		return math.Log10(y)
	}
	for _, s := range f.Series {
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, tr(s.Y[i]))
			ymax = math.Max(ymax, tr(s.Y[i]))
		}
	}
	if math.IsInf(xmin, 1) || xmin == xmax {
		return f.Title + ": (no data)\n"
	}
	if ymin == ymax {
		ymin, ymax = ymin-1, ymax+1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marker := func(i int) byte {
		const marks = "123456789abcdefghijklmnopqrstuvwxyz"
		if i < len(marks) {
			return marks[i]
		}
		return '*'
	}
	for si, s := range f.Series {
		for i := range s.X {
			cx := int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			cy := int((tr(s.Y[i]) - ymin) / (ymax - ymin) * float64(height-1))
			row := height - 1 - cy
			grid[row][cx] = marker(si)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	yname := f.YLabel
	if f.LogY {
		yname = "log10(" + yname + ")"
	}
	fmt.Fprintf(&b, "  y: %s in [%.3g, %.3g]\n", yname, ymin, ymax)
	for _, row := range grid {
		b.WriteString("  |" + string(row) + "|\n")
	}
	fmt.Fprintf(&b, "  x: %s in [%.3g, %.3g]\n", f.XLabel, xmin, xmax)
	for i, s := range f.Series {
		fmt.Fprintf(&b, "  [%c] %s\n", marker(i), s.Name)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Crossovers returns the x positions where series a first becomes smaller
// than series b and vice versa (sign changes of a-b), assuming a shared X
// grid. It is used to report "who wins where" for the figure comparisons.
func Crossovers(a, b Series) []float64 {
	var out []float64
	n := len(a.X)
	if len(b.X) < n {
		n = len(b.X)
	}
	prev := 0.0
	for i := 0; i < n; i++ {
		d := a.Y[i] - b.Y[i]
		if i > 0 && ((prev < 0 && d > 0) || (prev > 0 && d < 0)) {
			out = append(out, a.X[i])
		}
		if d != 0 {
			prev = d
		}
	}
	return out
}
