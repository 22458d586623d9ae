// Package metrics renders experiment results as aligned ASCII tables and
// figure series, the textual equivalents of the paper's tables and plots.
package metrics

import (
	"fmt"
	"strings"
	"unicode"
)

// Table is a titled, aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; short rows are padded.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Addf appends a row of formatted values.
func (t *Table) Addf(values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case string:
			cells[i] = x
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		default:
			cells[i] = fmt.Sprint(v)
		}
	}
	t.Add(cells...)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = displayWidth(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], displayWidth(c))
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-displayWidth(c)))
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// displayWidth is the number of columns s occupies in a terminal: its
// runes, not its bytes, less the combining marks that stack on the rune
// before them (W̄ is W + U+0304).
func displayWidth(s string) int {
	n := 0
	for _, r := range s {
		if !unicode.Is(unicode.Mn, r) {
			n++
		}
	}
	return n
}

// Series is one named data series of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure groups series under a caption.
type Figure struct {
	Caption string
	Series  []Series
}

// Add appends a series.
func (f *Figure) Add(name string, x, y []float64) {
	f.Series = append(f.Series, Series{Name: name, X: x, Y: y})
}

// AddY appends a series with implicit X = 0..n-1.
func (f *Figure) AddY(name string, y []float64) {
	x := make([]float64, len(y))
	for i := range x {
		x[i] = float64(i)
	}
	f.Add(name, x, y)
}

// String renders the figure as per-series CSV plus a sparkline per series.
func (f *Figure) String() string {
	var sb strings.Builder
	if f.Caption != "" {
		sb.WriteString(f.Caption)
		sb.WriteByte('\n')
	}
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "  %-28s %s\n", s.Name, Sparkline(s.Y, 60))
	}
	return sb.String()
}

// CSV renders the figure's series as columns: x, then one column per
// series (aligned on the first series' X).
func (f *Figure) CSV() string {
	var sb strings.Builder
	sb.WriteString("x")
	for _, s := range f.Series {
		sb.WriteByte(',')
		sb.WriteString(s.Name)
	}
	sb.WriteByte('\n')
	if len(f.Series) == 0 {
		return sb.String()
	}
	n := len(f.Series[0].X)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%g", f.Series[0].X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&sb, ",%g", s.Y[i])
			} else {
				sb.WriteByte(',')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline compresses a series into width unicode block characters.
func Sparkline(ys []float64, width int) string {
	if len(ys) == 0 {
		return ""
	}
	if width <= 0 || width > len(ys) {
		width = len(ys)
	}
	// Downsample by max within each cell (peaks matter for imbalance).
	cells := make([]float64, width)
	for i := range cells {
		lo := i * len(ys) / width
		hi := (i + 1) * len(ys) / width
		if hi <= lo {
			hi = lo + 1
		}
		mx := ys[lo]
		for _, v := range ys[lo:hi] {
			if v > mx {
				mx = v
			}
		}
		cells[i] = mx
	}
	mn, mx := cells[0], cells[0]
	for _, v := range cells {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	var sb strings.Builder
	for _, v := range cells {
		idx := 0
		if mx > mn {
			idx = int((v - mn) / (mx - mn) * float64(len(sparkLevels)-1))
		}
		sb.WriteRune(sparkLevels[idx])
	}
	return sb.String()
}

// Bytes renders a byte count human-readably.
func Bytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// Seconds renders a duration in seconds with sensible precision.
func Seconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f s", s)
	case s >= 1:
		return fmt.Sprintf("%.1f s", s)
	default:
		return fmt.Sprintf("%.3f s", s)
	}
}

// Pct renders a ratio as a percentage.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
