package experiments

import (
	"fmt"
	"html"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"datanet/internal/metrics"
)

// Report is the one shape every experiment produces, filled as it runs: an
// ordered list of blocks (tables, figures, text lines) and the experiment's
// named numeric outcomes. Everything downstream derives from it — String is
// the suite text, the figure blocks are the CSV files, the figure and table
// blocks are the HTML report, and Values feed the claim gates declared
// beside each section in suite.go.
type Report struct {
	// Values names the experiment's numeric outcomes. A key is the cell's
	// axes joined by "/" (`128/slow-heavy/oracle/none`, `clustered/both`);
	// alone it is the cell's simulated time, with a trailing counter name
	// (`…/bytes_moved`, `…/improvement`) any other outcome of the cell.
	// Experiment-wide outcomes have a bare name (`output_divergences`).
	Values map[string]float64
	blocks []block
}

// block is one piece of a report: a text line, a table, a figure, or a
// traced run's Gantt chart, which only the HTML report shows.
type block struct {
	text   string
	table  *metrics.Table
	figure *metrics.Figure
	gantt  *metrics.Gantt
	// id completes a figure's CSV file name, <section><id>.csv.
	id   string
	kind figureKind
}

// figureKind says how a figure block is shown outside the CSV export.
type figureKind int

const (
	lineFigure figureKind = iota // sparklines in the text, a line chart in HTML
	barFigure                    // sparklines in the text, a bar chart in HTML
	exportOnly                   // a line chart in HTML, absent from the text
)

func newReport() *Report { return &Report{Values: map[string]float64{}} }

// linef appends one line of text (a header, a summary, a note).
func (r *Report) linef(format string, args ...any) {
	r.blocks = append(r.blocks, block{text: fmt.Sprintf(format, args...) + "\n"})
}

func (r *Report) table(t *metrics.Table) { r.blocks = append(r.blocks, block{table: t}) }

func (r *Report) figure(id string, kind figureKind, f *metrics.Figure) {
	r.blocks = append(r.blocks, block{figure: f, id: id, kind: kind})
}

// outputCell renders a sweep's "output" column for one executed job and
// counts a divergence from the reference output in
// Values["output_divergences"], the cell every sweep's identity gate reads.
func (r *Report) outputCell(got, want map[string]string) string {
	if !reflect.DeepEqual(got, want) {
		r.Values["output_divergences"]++
		return "DIVERGED"
	}
	r.Values["output_divergences"] += 0 // the key exists even at zero: a gate on a missing key fails
	return "ok"
}

// String renders the report as the suite prints it.
func (r *Report) String() string {
	var sb strings.Builder
	for _, b := range r.blocks {
		switch {
		case b.table != nil:
			sb.WriteString(b.table.String())
		case b.figure != nil && b.kind != exportOnly:
			sb.WriteString(b.figure.String())
		default:
			sb.WriteString(b.text)
		}
	}
	return sb.String()
}

// balanceCells records a comparison's two workload imbalances and its gain
// under key and returns them as the three table cells most sweeps end on.
func (r *Report) balanceCells(key string, e *Env, c comparison) (without, with, gain string) {
	wo, wi := e.maxOverAvg(c.without), e.maxOverAvg(c.with)
	r.Values[key+"/baseline_max_avg"] = wo
	r.Values[key+"/datanet_max_avg"] = wi
	r.Values[key+"/improvement"] = c.gain
	return fmt.Sprintf("%.2f", wo), fmt.Sprintf("%.2f", wi), metrics.Pct(c.gain)
}

// reportSections are the sections the CSV and HTML exports walk: the
// paper's figures and tables plus the crash-recovery sweep.
var reportSections = []string{"fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "table2", "fig9", "fig10", "fault-tolerance"}

// Export runs the report sections once and writes the exports asked for:
// with htmlPath, a single self-contained HTML file (inline SVG, no
// external assets) of the sections plus one traced job, so the
// reproduction can be eyeballed against the paper's plots; with csvDir,
// every figure block's series as <section><id>.csv under csvDir (created
// if missing), so the results can be re-plotted with any tool. An empty
// argument skips its export. It returns the files written.
func Export(csvDir, htmlPath string) ([]string, error) {
	secs, err := runNamed(io.Discard, reportSections...)
	if err != nil {
		return nil, err
	}
	var written []string
	if htmlPath != "" {
		tl, err := Timeline(MovieParams{})
		if err != nil {
			return nil, err
		}
		doc := htmlReport(append(secs, BenchSection{Name: "per-run timeline", Report: tl}))
		if err := os.WriteFile(htmlPath, []byte(doc), 0o644); err != nil {
			return nil, err
		}
		written = append(written, htmlPath)
	}
	if csvDir == "" {
		return written, nil
	}
	files, err := writeCSVs(csvDir, secs)
	return append(written, files...), err
}

func writeCSVs(dir string, secs []BenchSection) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	for _, sec := range secs {
		for _, b := range sec.blocks {
			if b.figure == nil {
				continue
			}
			path := filepath.Join(dir, sec.Name+b.id+".csv")
			if err := os.WriteFile(path, []byte(b.figure.CSV()), 0o644); err != nil {
				return written, err
			}
			written = append(written, path)
		}
	}
	return written, nil
}

// htmlReport renders each section's blocks in order: a figure or a Gantt
// as an SVG chart, a table as an HTML table, a text line as a paragraph.
func htmlReport(secs []BenchSection) string {
	var sb strings.Builder
	sb.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8"/><title>DataNet reproduction report</title></head><body style="font-family:sans-serif;max-width:760px;margin:2em auto">`)
	sb.WriteString(`<h1>DataNet — reproduction report</h1>`)
	sb.WriteString(`<p>Regenerated figures for "DataNet: A Data Distribution-aware Method for Sub-dataset Analysis on Distributed File Systems" (IPDPS 2016). See EXPERIMENTS.md for the paper-vs-measured commentary.</p>`)
	for _, sec := range secs {
		fmt.Fprintf(&sb, `<h2 style="margin-top:2em">%s</h2>`, sec.Name)
		for _, b := range sec.blocks {
			switch {
			case b.table != nil:
				sb.WriteString(b.table.HTMLTable())
			case b.gantt != nil:
				sb.WriteString(b.gantt.SVG())
			case b.figure == nil:
				fmt.Fprintf(&sb, "<p>%s</p>", html.EscapeString(strings.TrimSpace(b.text)))
			case b.kind == barFigure:
				sb.WriteString(b.figure.BarSVG())
			default:
				sb.WriteString(b.figure.LineSVG())
			}
		}
	}
	sb.WriteString(`</body></html>`)
	return sb.String()
}
