package experiments

import (
	"encoding/xml"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datanet/internal/stats"
)

// smallReportSections runs every section the exporters walk at test scale,
// in reportSections order.
func smallReportSections(t *testing.T) []BenchSection {
	t.Helper()
	env := smallEnv(t)
	runs := map[string]func() (*Report, error){
		"fig1":            func() (*Report, error) { return Fig1(smallMovie()) },
		"fig2":            func() (*Report, error) { return Fig2(stats.Gamma{}, 0, nil), nil },
		"fig5":            func() (*Report, error) { return Fig5(env) },
		"fig6":            func() (*Report, error) { return Fig6(env) },
		"fig7":            func() (*Report, error) { return Fig7(env) },
		"fig8":            func() (*Report, error) { return Fig8(smallEvent()) },
		"table2":          func() (*Report, error) { return Table2(env, nil) },
		"fig9":            func() (*Report, error) { return Fig9(env, 10) },
		"fig10":           func() (*Report, error) { return Fig10(env, []float64{0.3, 1.0}) },
		"fault-tolerance": func() (*Report, error) { return FaultTolerance(MovieParams{}) },
	}
	var secs []BenchSection
	for _, name := range reportSections {
		r, err := runs[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		secs = append(secs, BenchSection{Name: name, Report: r})
	}
	return secs
}

// blockCounts counts the figure and table blocks of a section list.
func blockCounts(secs []BenchSection) (figures, tables int) {
	for _, sec := range secs {
		figures += len(figuresOf(sec.Report))
		tables += len(tablesOf(sec.Report))
	}
	return figures, tables
}

// A figure block's CSV is its series as the text names them: x, then one
// column per series and one row per point.
func TestFigureCSVMethods(t *testing.T) {
	env := smallEnv(t)
	csvOf := func(r *Report, err error) func(figure int) string {
		if err != nil {
			t.Fatal(err)
		}
		return func(figure int) string { return figuresOf(r)[figure].CSV() }
	}
	if csv := csvOf(Fig5(env))(1); !strings.HasPrefix(csv, "x,without DataNet,with DataNet\n") {
		t.Errorf("fig5(c) CSV header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	sizes := []int{2, 8, 32, 128}
	if csv := figuresOf(Fig2(stats.Gamma{}, 0, sizes))[0].CSV(); strings.Count(csv, "\n") != len(sizes)+1 {
		t.Errorf("fig2 CSV rows = %d, want %d", strings.Count(csv, "\n")-1, len(sizes))
	}
	// Fig. 10's balance curves are export-only: in the CSV, not in the text.
	r10, err := Fig10(env, []float64{0.3, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if csv := figuresOf(r10)[0].CSV(); !strings.HasPrefix(csv, "x,max/avg,min/avg,std/avg\n0.3,") {
		t.Errorf("fig10 CSV: %q", csv)
	}
	if strings.Contains(r10.String(), "workload balance vs α") {
		t.Error("fig10's export-only figure is printed in the text")
	}
	if csv := csvOf(Fig9(env, 10))(0); strings.Count(csv, "\n") != 11 { // header + 10 points
		t.Errorf("fig9 CSV rows: %d", strings.Count(csv, "\n"))
	}
}

// The CSV export is one file per figure block of the sections it is given,
// named <section><id>.csv.
func TestWriteCSVSuite(t *testing.T) {
	secs := smallReportSections(t)
	dir := filepath.Join(t.TempDir(), "figs")
	files, err := writeCSVs(dir, secs)
	if err != nil {
		t.Fatal(err)
	}
	figures, _ := blockCounts(secs)
	if len(files) != figures || figures != 11 {
		t.Fatalf("wrote %d files for %d figure blocks, want 11 of each", len(files), figures)
	}
	for _, name := range []string{"fig1a_blocks.csv", "fig1b_nodes.csv", "fig2_probabilities.csv", "fig5c_workloads.csv",
		"fig6a_maptimes.csv", "fig8a_blocks.csv", "fig9_accuracy.csv", "fig10_balance.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
	var figs []string
	for _, sec := range secs {
		for _, f := range figuresOf(sec.Report) {
			figs = append(figs, f.CSV())
		}
	}
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "x,") || string(data) != figs[i] {
			t.Errorf("%s: malformed CSV", f)
		}
		if rows := strings.Count(string(data), "\n") - 1; rows == 0 || rows != strings.Count(figs[i], "\n")-1 {
			t.Errorf("%s: %d rows", f, rows)
		}
	}
}

// The HTML report is well-formed, lists every section it is given, and
// holds one chart per figure block and one table per table block; the
// traced run brings its Gantt chart and metric tables as blocks of its own.
func TestWriteHTMLReport(t *testing.T) {
	secs := smallReportSections(t)
	figures, tables := blockCounts(secs)
	if figures != 11 || tables != 7 {
		t.Errorf("the report sections hold %d figure and %d table blocks, want 11 and 7", figures, tables)
	}
	tl := ran(t, "traced")(Timeline(MovieParams{}))
	if tl.blocks[1].gantt == nil || strings.Contains(tl.String(), "<svg") {
		t.Errorf("the timeline's chart is not an HTML-only block after its text line")
	}
	secs = append(secs, BenchSection{Name: "per-run timeline", Report: tl})
	doc := htmlReport(secs)
	dec := xml.NewDecoder(strings.NewReader(doc))
	dec.Entity = xml.HTMLEntity
	for {
		if _, err := dec.Token(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("report is not well-formed: %v", err)
		}
	}
	if got := strings.Count(doc, "<svg"); got != figures+1 {
		t.Errorf("%d <svg for %d figure blocks and the timeline", got, figures)
	}
	if got, want := strings.Count(doc, "<table"), tables+len(tablesOf(tl)); got != want || want == tables {
		t.Errorf("%d <table, want %d (%d table blocks and the timeline's)", got, want, tables)
	}
	for _, sec := range secs {
		if !strings.Contains(doc, ">"+sec.Name+"</h2>") {
			t.Errorf("report does not list section %q", sec.Name)
		}
	}
	for _, want := range []string{"E[#nodes&lt;E/2]", "degraded metadata", "node 3 crashes at"} {
		if !strings.Contains(doc, want) {
			t.Errorf("report lacks %q", want)
		}
	}
}
