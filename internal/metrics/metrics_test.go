package metrics

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "name", "value")
	tb.Add("short", "1")
	tb.Add("a-much-longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Errorf("title line = %q", lines[0])
	}
	// Header, separator and both rows align on the widest cell.
	if !strings.HasPrefix(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("separator = %q", lines[2])
	}
	if len(lines) != 5 {
		t.Errorf("line count = %d", len(lines))
	}
	width := len(lines[1])
	for _, l := range lines[2:] {
		if len(strings.TrimRight(l, " ")) > width+2 {
			t.Errorf("row overflows header width: %q", l)
		}
	}
}

// Columns are sized by display width, not bytes: every line of a table
// whose widest cell holds a multi-byte rune or a combining mark still ends
// in the same column, and the dash rule is as wide as that cell.
func TestTableAlignsByDisplayWidth(t *testing.T) {
	for _, c := range []struct {
		cell  string
		width int
	}{
		{"plain ascii", 11},
		{"α realized", 10},
		{"1.00×", 5},
		{"uniform W̄", 9},
	} {
		if got := displayWidth(c.cell); got != c.width {
			t.Errorf("displayWidth(%q) = %d, want %d", c.cell, got, c.width)
		}
		tb := NewTable("", c.cell, "next")
		tb.Add("x", "1")
		tb.Add(c.cell, "22")
		lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
		if want := strings.Repeat("-", c.width) + "  ----"; lines[1] != want {
			t.Errorf("%q: rule %q, want %q", c.cell, lines[1], want)
		}
		for _, l := range lines {
			if got := displayWidth(l); got != c.width+2+4 {
				t.Errorf("%q: line %q is %d columns wide, want %d", c.cell, l, got, c.width+6)
			}
		}
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.Add("only-one")
	if !strings.Contains(tb.String(), "only-one") {
		t.Error("short row lost")
	}
}

func TestTableAddf(t *testing.T) {
	tb := NewTable("", "s", "f", "i")
	tb.Addf("x", 3.14159, 42)
	out := tb.String()
	if !strings.Contains(out, "3.142") || !strings.Contains(out, "42") {
		t.Errorf("Addf rendering: %q", out)
	}
}

func TestFigure(t *testing.T) {
	var f Figure
	f.AddY("series-a", []float64{1, 2, 3})
	f.Add("series-b", []float64{0, 1}, []float64{5, 6})
	if len(f.Series) != 2 {
		t.Fatalf("series = %d", len(f.Series))
	}
	if f.Series[0].X[2] != 2 {
		t.Errorf("implicit X = %v", f.Series[0].X)
	}
	out := f.String()
	if !strings.Contains(out, "series-a") || !strings.Contains(out, "series-b") {
		t.Errorf("figure render: %q", out)
	}
}

func TestFigureCSV(t *testing.T) {
	var f Figure
	f.AddY("y1", []float64{10, 20})
	f.AddY("y2", []float64{1})
	csv := f.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "x,y1,y2" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,10,1" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != "1,20," {
		t.Errorf("short series not padded: %q", lines[2])
	}
	var empty Figure
	if got := empty.CSV(); got != "x\n" {
		t.Errorf("empty CSV = %q", got)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 10); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	got := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if utf8.RuneCountInString(got) != 8 {
		t.Errorf("width = %d, want 8", utf8.RuneCountInString(got))
	}
	// Monotone data renders monotone blocks.
	runes := []rune(got)
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Errorf("sparkline not monotone: %q", got)
		}
	}
	// Downsampling keeps the peak visible.
	spiky := make([]float64, 100)
	spiky[50] = 99
	ds := Sparkline(spiky, 10)
	if !strings.ContainsRune(ds, '█') {
		t.Errorf("peak lost in downsampling: %q", ds)
	}
	// Constant series: all minimum blocks, no panic.
	flat := Sparkline([]float64{5, 5, 5}, 3)
	if utf8.RuneCountInString(flat) != 3 {
		t.Errorf("flat sparkline = %q", flat)
	}
}

func TestBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.0 KiB"},
		{64 << 20, "64.0 MiB"},
		{3 << 30, "3.0 GiB"},
	}
	for _, c := range cases {
		if got := Bytes(c.in); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSeconds(t *testing.T) {
	if got := Seconds(123.4); got != "123 s" {
		t.Errorf("Seconds(123.4) = %q", got)
	}
	if got := Seconds(5.25); got != "5.2 s" && got != "5.3 s" {
		t.Errorf("Seconds(5.25) = %q", got)
	}
	if got := Seconds(0.1234); got != "0.123 s" {
		t.Errorf("Seconds(0.1234) = %q", got)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.425); got != "42.5%" {
		t.Errorf("Pct = %q", got)
	}
}
