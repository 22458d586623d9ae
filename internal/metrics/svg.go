package metrics

import (
	"fmt"
	"math"
	"strings"
)

// SVG chart rendering, stdlib only. Charts are deliberately minimal —
// axes, ticks, series or spans, legend — and deterministic, so the HTML
// report is reproducible byte for byte. This file writes every chart of
// the report: line and bar charts of a Figure and the Gantt chart of a
// traced run share one document frame, axis ticks, legend and escaping.

// svgPalette cycles through series colors.
var svgPalette = []string{"#1f6fb2", "#d1495b", "#3a7d44", "#8a6d3b", "#6b5b95", "#444444"}

const (
	svgW      = 640
	svgH      = 320
	svgMargin = 48
)

// Swatch is one legend entry: a colored square and its label.
type Swatch struct{ Label, Color string }

// LineSVG renders the figure's series as a line chart.
func (f *Figure) LineSVG() string {
	return f.renderSVG(false)
}

// BarSVG renders the figure's first series as a bar chart (per-node and
// per-block distributions read better as bars).
func (f *Figure) BarSVG() string {
	return f.renderSVG(true)
}

func (f *Figure) renderSVG(bars bool) string {
	if len(f.Series) == 0 || len(f.Series[0].X) == 0 {
		return noDataSVG()
	}
	var sb strings.Builder
	openSVG(&sb, svgH)

	// Bounds over all series.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := 0.0, math.Inf(-1) // anchor y at 0: these are volumes/times
	for _, s := range f.Series {
		for i := range s.X {
			if s.X[i] < minX {
				minX = s.X[i]
			}
			if s.X[i] > maxX {
				maxX = s.X[i]
			}
		}
		for _, y := range s.Y {
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
		}
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	plotW := float64(svgW - 2*svgMargin)
	plotH := float64(svgH - 2*svgMargin)
	px := func(x float64) float64 { return svgMargin + (x-minX)/(maxX-minX)*plotW }
	py := func(y float64) float64 { return float64(svgH-svgMargin) - (y-minY)/(maxY-minY)*plotH }

	axes(&sb, svgH-svgMargin)
	// Ticks: 5 per axis.
	for i := 0; i <= 4; i++ {
		xv := minX + (maxX-minX)*float64(i)/4
		yv := minY + (maxY-minY)*float64(i)/4
		xTick(&sb, px(xv), svgH-svgMargin, xv)
		yTick(&sb, py(yv), fmtTick(yv))
	}

	var keys []Swatch
	if bars {
		s := f.Series[0]
		bw := plotW / float64(len(s.X)) * 0.8
		for i := range s.X {
			x := px(s.X[i]) - bw/2
			y := py(s.Y[i])
			fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`,
				x, y, bw, float64(svgH-svgMargin)-y, svgPalette[0])
		}
		keys = []Swatch{{s.Name, svgPalette[0]}}
	} else {
		for si, s := range f.Series {
			color := svgPalette[si%len(svgPalette)]
			var pts []string
			for i := range s.X {
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(s.X[i]), py(s.Y[i])))
			}
			fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>`,
				strings.Join(pts, " "), color)
			keys = append(keys, Swatch{s.Name, color})
		}
	}
	legend(&sb, svgW-svgMargin-150, svgMargin, keys)
	caption(&sb, f.Caption)
	sb.WriteString(`</svg>`)
	return sb.String()
}

// Gantt is a timeline chart over seconds from 0: one row per label,
// spans on the rows, and vertical marks across every row.
type Gantt struct {
	Caption string
	Rows    []string
	Spans   []Span
	Marks   []Mark
	Legend  []Swatch
}

// Span is one bar on row Row of a Gantt chart; Title is its hover text.
type Span struct {
	Row         int
	Start, Dur  float64
	Fill, Title string
}

// Mark is a vertical line at At across a Gantt chart's rows; Dash is its
// SVG stroke-dasharray ("none" for a solid line).
type Mark struct {
	At                  float64
	Stroke, Dash, Title string
}

// SVG renders the chart: row labels on the y axis, the time axis spanning
// the latest span end or mark, and the legend below it. A chart without
// rows or time renders as "no data".
func (g *Gantt) SVG() string {
	end := 0.0
	for _, s := range g.Spans {
		end = max(end, s.Start+s.Dur)
	}
	for _, m := range g.Marks {
		end = max(end, m.At)
	}
	if len(g.Rows) == 0 || end <= 0 {
		return noDataSVG()
	}
	const rowH, rowPitch = 16, 20
	bottom := svgMargin + len(g.Rows)*rowPitch
	plotW := float64(svgW - 2*svgMargin)
	px := func(t float64) float64 { return svgMargin + t/end*plotW }

	var sb strings.Builder
	openSVG(&sb, bottom+32+16*len(g.Legend))
	axes(&sb, bottom)
	for i := 0; i <= 4; i++ {
		t := end * float64(i) / 4
		xTick(&sb, px(t), bottom, t)
	}
	for i, row := range g.Rows {
		yTick(&sb, float64(svgMargin+i*rowPitch+rowH/2), row)
	}
	// Spans first, marks on top.
	for _, s := range g.Spans {
		fmt.Fprintf(&sb, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"><title>%s</title></rect>`,
			px(s.Start), svgMargin+s.Row*rowPitch, max(s.Dur/end*plotW, 0.5), rowH, s.Fill, escapeXML(s.Title))
	}
	for _, m := range g.Marks {
		fmt.Fprintf(&sb, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="%s" stroke-width="1.5" stroke-dasharray="%s"><title>%s</title></line>`,
			px(m.At), svgMargin-4, px(m.At), bottom, m.Stroke, m.Dash, escapeXML(m.Title))
	}
	legend(&sb, svgMargin, bottom+28, g.Legend)
	caption(&sb, g.Caption)
	sb.WriteString(`</svg>`)
	return sb.String()
}

// openSVG starts a chart document of the given height.
func openSVG(sb *strings.Builder, height int) {
	fmt.Fprintf(sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`, svgW, height)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
}

// noDataSVG is the whole document of a chart with nothing to draw.
func noDataSVG() string {
	var sb strings.Builder
	openSVG(&sb, svgH)
	sb.WriteString(`<text x="20" y="20">no data</text></svg>`)
	return sb.String()
}

// axes draws the x axis at bottom and the y axis up to the top margin.
func axes(sb *strings.Builder, bottom int) {
	fmt.Fprintf(sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`,
		svgMargin, bottom, svgW-svgMargin, bottom)
	fmt.Fprintf(sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`,
		svgMargin, svgMargin, svgMargin, bottom)
}

// xTick labels the value v at x under the x axis at bottom.
func xTick(sb *strings.Builder, x float64, bottom int, v float64) {
	fmt.Fprintf(sb, `<text x="%.0f" y="%d" text-anchor="middle" fill="#555">%s</text>`,
		x, bottom+16, fmtTick(v))
}

// yTick labels height y left of the y axis and draws its grid line.
func yTick(sb *strings.Builder, y float64, label string) {
	fmt.Fprintf(sb, `<text x="%d" y="%.0f" text-anchor="end" fill="#555">%s</text>`,
		svgMargin-6, y+4, escapeXML(label))
	fmt.Fprintf(sb, `<line x1="%d" y1="%.0f" x2="%d" y2="%.0f" stroke="#eee"/>`,
		svgMargin, y, svgW-svgMargin, y)
}

// legend lists the swatches downwards from (x, y).
func legend(sb *strings.Builder, x, y int, keys []Swatch) {
	for i, k := range keys {
		fmt.Fprintf(sb, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`, x, y+i*16, k.Color)
		fmt.Fprintf(sb, `<text x="%d" y="%d" fill="#333">%s</text>`, x+15, y+i*16+9, escapeXML(k.Label))
	}
}

func caption(sb *strings.Builder, text string) {
	if text != "" {
		fmt.Fprintf(sb, `<text x="%d" y="16" fill="#111" font-size="13">%s</text>`, svgMargin, escapeXML(text))
	}
}

func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case av >= 10 || v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// HTMLTable renders the table as an HTML fragment.
func (t *Table) HTMLTable() string {
	var sb strings.Builder
	sb.WriteString(`<table border="0" cellpadding="4" style="border-collapse:collapse;font-family:sans-serif;font-size:13px">`)
	if t.Title != "" {
		fmt.Fprintf(&sb, `<caption style="text-align:left;font-weight:bold;padding:4px">%s</caption>`, escapeXML(t.Title))
	}
	sb.WriteString("<tr>")
	for _, h := range t.Headers {
		fmt.Fprintf(&sb, `<th style="border-bottom:1px solid #999;text-align:left">%s</th>`, escapeXML(h))
	}
	sb.WriteString("</tr>")
	for _, row := range t.Rows {
		sb.WriteString("<tr>")
		for _, c := range row {
			fmt.Fprintf(&sb, `<td style="border-bottom:1px solid #eee">%s</td>`, escapeXML(c))
		}
		sb.WriteString("</tr>")
	}
	sb.WriteString("</table>")
	return sb.String()
}
