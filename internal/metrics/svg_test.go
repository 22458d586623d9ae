package metrics

import (
	"strings"
	"testing"
)

func TestLineSVG(t *testing.T) {
	var f Figure
	f.Caption = "test <chart>"
	f.Add("a & b", []float64{0, 1, 2}, []float64{3, 1, 4})
	f.AddY("second", []float64{1, 2, 3})
	svg := f.LineSVG()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if strings.Count(svg, "<polyline") != 2 {
		t.Errorf("polylines = %d, want 2", strings.Count(svg, "<polyline"))
	}
	// XML escaping of captions and legend names.
	if strings.Contains(svg, "test <chart>") || !strings.Contains(svg, "test &lt;chart&gt;") {
		t.Error("caption not escaped")
	}
	if !strings.Contains(svg, "a &amp; b") {
		t.Error("legend not escaped")
	}
}

func TestBarSVG(t *testing.T) {
	var f Figure
	f.AddY("bars", []float64{5, 0, 10, 2})
	svg := f.BarSVG()
	if strings.Count(svg, "<rect") < 5 { // background + 4 bars
		t.Errorf("rects = %d", strings.Count(svg, "<rect"))
	}
}

func TestSVGEmpty(t *testing.T) {
	var f Figure
	svg := f.LineSVG()
	if !strings.Contains(svg, "no data") {
		t.Error("empty figure should say so")
	}
}

func TestSVGConstantSeries(t *testing.T) {
	var f Figure
	f.AddY("flat", []float64{7, 7, 7})
	svg := f.LineSVG()
	if !strings.Contains(svg, "<polyline") {
		t.Error("flat series should still render")
	}
	// No NaN coordinates from the degenerate y-range.
	if strings.Contains(svg, "NaN") {
		t.Error("NaN coordinates in SVG")
	}
}

// A Gantt chart draws its rows as y-axis labels, each mark as a line with
// its hover title, and its legend through the figures' frame and escaping;
// a chart with no rows says so like an empty figure.
func TestGanttSVG(t *testing.T) {
	g := Gantt{
		Rows:   []string{"node 0", "node 1"},
		Spans:  []Span{{Row: 0, Dur: 1.5, Fill: "#1f6fb2", Title: "a <span>"}, {Row: 1, Start: 0.2, Dur: 0.5, Fill: "#e8a33d"}},
		Marks:  []Mark{{At: 1, Stroke: "#c00", Dash: "none", Title: "crash node 1 @ 1.00s"}, {At: 2, Stroke: "#999", Dash: "1,3"}},
		Legend: []Swatch{{Label: "filter (local)", Color: "#1f6fb2"}},
	}
	svg := g.SVG()
	if !strings.HasPrefix(svg, `<svg xmlns="http://www.w3.org/2000/svg" width="640" `) || !strings.HasSuffix(svg, "</svg>") {
		t.Fatalf("not a chart document: %.80s", svg)
	}
	for _, want := range []string{">node 0</text>", ">node 1</text>", "<title>crash node 1 @ 1.00s</title></line>",
		`stroke-dasharray="1,3"`, ">filter (local)</text>", "<title>a &lt;span&gt;</title></rect>"} {
		if !strings.Contains(svg, want) {
			t.Errorf("Gantt SVG lacks %q", want)
		}
	}
	if n := strings.Count(svg, "<rect"); n != 1+len(g.Spans)+len(g.Legend) {
		t.Errorf("%d <rect, want the background, %d spans and %d swatches", n, len(g.Spans), len(g.Legend))
	}
	var fig Figure
	if empty := (&Gantt{}).SVG(); empty != fig.LineSVG() || !strings.Contains(empty, "no data") {
		t.Errorf("empty Gantt = %q", empty)
	}
}

func TestHTMLTable(t *testing.T) {
	tb := NewTable("T & Co", "col<1>", "col2")
	tb.Add("a", "b")
	html := tb.HTMLTable()
	if !strings.Contains(html, "T &amp; Co") || !strings.Contains(html, "col&lt;1&gt;") {
		t.Error("HTML escaping missing")
	}
	if strings.Count(html, "<tr>") != 2 {
		t.Errorf("rows = %d", strings.Count(html, "<tr>"))
	}
}

func TestFmtTick(t *testing.T) {
	cases := map[float64]string{
		1500000: "1.5M",
		2500:    "2.5k",
		42:      "42",
		0.25:    "0.25",
		3:       "3",
	}
	for in, want := range cases {
		if got := fmtTick(in); got != want {
			t.Errorf("fmtTick(%g) = %q, want %q", in, got, want)
		}
	}
}
