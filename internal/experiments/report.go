package experiments

import (
	"fmt"
	"os"
	"strings"

	"datanet/internal/metrics"
	"datanet/internal/stats"
)

// WriteHTMLReport regenerates the figure experiments and writes a single
// self-contained HTML file (inline SVG, no external assets) so the
// reproduction can be eyeballed against the paper's plots.
func WriteHTMLReport(path string) error {
	var sb strings.Builder
	sb.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8"><title>DataNet reproduction report</title></head><body style="font-family:sans-serif;max-width:760px;margin:2em auto">`)
	sb.WriteString(`<h1>DataNet — reproduction report</h1>`)
	sb.WriteString(`<p>Regenerated figures for "DataNet: A Data Distribution-aware Method for Sub-dataset Analysis on Distributed File Systems" (IPDPS 2016). See EXPERIMENTS.md for the paper-vs-measured commentary.</p>`)

	section := func(title, body string) {
		fmt.Fprintf(&sb, `<h2 style="margin-top:2em">%s</h2>%s`, title, body)
	}

	// Figure 1.
	f1p := DefaultMovieParams()
	f1p.Blocks = 128
	r1, err := Fig1(f1p)
	if err != nil {
		return err
	}
	var fig1a metrics.Figure
	fig1a.Caption = "Fig 1(a) — sub-dataset size over HDFS blocks (MB at 64MB scale)"
	fig1a.AddY("block MB", r1.BlockMB)
	var fig1b metrics.Figure
	fig1b.Caption = "Fig 1(b) — workload over nodes, locality scheduling (MB)"
	fig1b.AddY("node MB", r1.NodeMB)
	section("Figure 1 — content clustering", fig1a.BarSVG()+fig1b.BarSVG())

	// Figure 2.
	r2 := Fig2(stats.Gamma{}, 0, nil)
	x := make([]float64, len(r2.Sizes))
	for i, m := range r2.Sizes {
		x[i] = float64(m)
	}
	var fig2 metrics.Figure
	fig2.Caption = "Fig 2 — imbalance probability vs cluster size"
	fig2.Add("P(Z<E/3)", x, r2.BelowThird)
	fig2.Add("P(Z<E/2)", x, r2.BelowHalf)
	fig2.Add("P(Z>2E)", x, r2.AboveDouble)
	fig2.Add("P(Z>3E)", x, r2.AboveTriple)
	section("Figure 2 — analytic model", fig2.LineSVG())

	// Figures 5–7 share the main environment.
	env, err := NewMovieEnv(DefaultMovieParams())
	if err != nil {
		return err
	}
	r5, err := Fig5(env)
	if err != nil {
		return err
	}
	t5 := metrics.NewTable("Fig 5(a) — overall execution time", "application", "without", "with", "improvement")
	for _, a := range r5.Apps {
		t5.Add(a.App, metrics.Seconds(a.Without.AnalysisTime), metrics.Seconds(a.With.AnalysisTime), metrics.Pct(a.Improvement))
	}
	var fig5c metrics.Figure
	fig5c.Caption = "Fig 5(c) — filtered workload per node (MB)"
	fig5c.AddY("without DataNet", r5.NodeWithout)
	fig5c.AddY("with DataNet", r5.NodeWith)
	section("Figure 5 — overall comparison", t5.HTMLTable()+fig5c.LineSVG())

	r6, err := Fig6(env)
	if err != nil {
		return err
	}
	var fig6 metrics.Figure
	fig6.Caption = "Fig 6(a) — Top-K per-node map time (s)"
	fig6.AddY("without DataNet", r6.TopKWithout)
	fig6.AddY("with DataNet", r6.TopKWith)
	section("Figure 6 — map time on the filtered sub-dataset", fig6.LineSVG())

	r7, err := Fig7(env)
	if err != nil {
		return err
	}
	t7 := metrics.NewTable("Fig 7 — shuffle time (s)", "application", "variant", "max")
	for _, row := range r7.Rows {
		t7.Add(row.App, row.Variant, fmt.Sprintf("%.2f", row.Max))
	}
	section("Figure 7 — shuffle phase", t7.HTMLTable())

	// Figure 8.
	r8, err := Fig8(EventParams{})
	if err != nil {
		return err
	}
	var fig8 metrics.Figure
	fig8.Caption = "Fig 8(a) — IssueEvent size over blocks (MB)"
	fig8.AddY("block MB", r8.BlockMB)
	section("Figure 8 — GitHub IssueEvent", fig8.BarSVG())

	// Table II.
	t2r, err := Table2(env, nil)
	if err != nil {
		return err
	}
	t2 := metrics.NewTable("Table II — ElasticMap efficiency", "α target", "α realized", "accuracy χ", "ratio")
	for _, row := range t2r.Rows {
		t2.Add(metrics.Pct(row.TargetAlpha), metrics.Pct(row.RealizedAlpha), metrics.Pct(row.Accuracy), fmt.Sprintf("%.0f", row.Ratio))
	}
	section("Table II — meta-data efficiency", t2.HTMLTable())

	// Figure 9.
	r9, err := Fig9(env, 50)
	if err != nil {
		return err
	}
	actual := make([]float64, len(r9.Points))
	est := make([]float64, len(r9.Points))
	for i, pnt := range r9.Points {
		actual[i] = pnt.ActualMB
		est[i] = pnt.EstimateMB
	}
	var fig9 metrics.Figure
	fig9.Caption = "Fig 9 — actual vs estimated sub-dataset size (MB)"
	fig9.AddY("actual", actual)
	fig9.AddY("estimated", est)
	section("Figure 9 — estimate accuracy", fig9.LineSVG())

	// Figure 10.
	r10, err := Fig10(env, nil)
	if err != nil {
		return err
	}
	ax := make([]float64, len(r10.Rows))
	mx := make([]float64, len(r10.Rows))
	mn := make([]float64, len(r10.Rows))
	for i, row := range r10.Rows {
		ax[i] = row.Alpha
		mx[i] = row.NormMax
		mn[i] = row.NormMin
	}
	var fig10 metrics.Figure
	fig10.Caption = "Fig 10 — workload balance vs α"
	fig10.Add("max/avg", ax, mx)
	fig10.Add("min/avg", ax, mn)
	section("Figure 10 — balance vs α", fig10.LineSVG())

	// Fault tolerance (robustness extension: crash recovery sweep).
	ft, err := FaultTolerance(MovieParams{})
	if err != nil {
		return err
	}
	tft := metrics.NewTable("Crash recovery across schedulers",
		"scheduler", "crashes", "at", "job time", "slowdown", "retried", "repaired", "output")
	for _, row := range ft.Rows {
		ok := "ok"
		if !row.OutputOK {
			ok = "DIVERGED"
		}
		tft.Add(row.Scheduler, fmt.Sprint(row.Crashes),
			metrics.Pct(row.CrashFrac), metrics.Seconds(row.JobTime),
			fmt.Sprintf("%.2fx", row.Slowdown), fmt.Sprint(row.Retried),
			fmt.Sprint(row.Repaired), ok)
	}
	ftBody := tft.HTMLTable() + ft.Counters.Table("Fault-handling totals").HTMLTable() +
		fmt.Sprintf("<p>Degraded metadata demotes DataNet to %q (output correct: %v).</p>",
			ft.FallbackSched, ft.FallbackOK)
	section("Fault tolerance — crash recovery sweep", ftBody)

	// Per-run timeline (observability extension): one traced run with a
	// mid-filter crash, rendered as a Gantt chart plus its metrics digest.
	tl, err := Timeline(MovieParams{})
	if err != nil {
		return err
	}
	tlBody := fmt.Sprintf(
		"<p>One DataNet-scheduled TopKSearch run, traced: node 3 crashes at %.2f s (red line) and rejoins at %.2f s (green dashed). Spans show filter attempts per node; failed attempts and the recovery tail are visible directly. Export the same timeline with <code>datanet analyze -trace out.json -trace-format chrome</code> and load it in Perfetto for the interactive view.</p>",
		tl.CrashAt, tl.RejoinAt) + tl.Rec.TimelineSVG()
	for _, t := range tl.Snapshot.Tables("Run metrics") {
		tlBody += t.HTMLTable()
	}
	section("Per-run timeline — traced execution", tlBody)

	sb.WriteString(`</body></html>`)
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
