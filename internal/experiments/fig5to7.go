package experiments

import (
	"fmt"
	"strings"

	"datanet/internal/apps"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
	"datanet/internal/stats"
)

// AppComparison is one application's with/without-DataNet outcome.
type AppComparison struct {
	App     string
	Without *mapreduce.Result
	With    *mapreduce.Result
	// Improvement is (without − with) / without on the analysis job's
	// execution time (the filter pass is shared prep, as in the paper).
	Improvement float64
}

// Fig5Result reproduces paper Figure 5 (and feeds Figures 6 and 7, which
// the paper derives from the same runs):
//
//	(a) overall execution time of the four analysis jobs with/without
//	    DataNet (paper improvements: MovingAverage 20%, WordCount 39.1%,
//	    Histogram 40.6%, TopKSearch 42%);
//	(b) the target sub-dataset's size over HDFS blocks;
//	(c) the filtered workload over cluster nodes under both schedulers.
type Fig5Result struct {
	Env  *Env
	Apps []AppComparison
	// BlockMB is (b): per-block target data at 64MB-block scale.
	BlockMB []float64
	// NodeWithout/NodeWith are (c): per-node filtered MB under each
	// scheduler (taken from the Top-K run, as any app shares the layout).
	NodeWithout, NodeWith []float64
}

// Fig5 runs all four applications under both schedulers.
func Fig5(env *Env) (*Fig5Result, error) {
	res := &Fig5Result{Env: env}
	blockScale := float64(64<<20) / float64(env.FS.Config().BlockSize)
	for _, b := range env.BlockTruth {
		res.BlockMB = append(res.BlockMB, float64(b)*blockScale/(1<<20))
	}
	for _, app := range apps.All() {
		without, err := env.RunBaseline(app)
		if err != nil {
			return nil, err
		}
		with, err := env.RunDataNet(app)
		if err != nil {
			return nil, err
		}
		imp := 0.0
		if without.AnalysisTime > 0 {
			imp = (without.AnalysisTime - with.AnalysisTime) / without.AnalysisTime
		}
		res.Apps = append(res.Apps, AppComparison{
			App: app.Name(), Without: without, With: with, Improvement: imp,
		})
		if app.Name() == "TopKSearch" {
			wo := NodeSeries(env.Topo, without.NodeWorkload)
			wi := NodeSeries(env.Topo, with.NodeWorkload)
			for i := range wo {
				res.NodeWithout = append(res.NodeWithout, wo[i]*blockScale/(1<<20))
				res.NodeWith = append(res.NodeWith, wi[i]*blockScale/(1<<20))
			}
		}
	}
	return res, nil
}

// Comparison returns the entry for an app name, or nil.
func (r *Fig5Result) Comparison(app string) *AppComparison {
	for i := range r.Apps {
		if r.Apps[i].App == app {
			return &r.Apps[i]
		}
	}
	return nil
}

// String renders Figure 5.
func (r *Fig5Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5 — overall comparison (%s)\n", r.Env.describe())
	t := metrics.NewTable("(a) overall execution time", "application", "without DataNet", "with DataNet", "improvement", "paper")
	paper := map[string]string{
		"MovingAverage": "20%", "WordCount": "39.1%", "WordHistogram": "40.6%", "TopKSearch": "42%",
	}
	for _, a := range r.Apps {
		t.Add(a.App, metrics.Seconds(a.Without.AnalysisTime), metrics.Seconds(a.With.AnalysisTime),
			metrics.Pct(a.Improvement), paper[a.App])
	}
	sb.WriteString(t.String())

	figB := metrics.Figure{Caption: "(b) target sub-dataset size over HDFS blocks (MB at 64MB scale)"}
	figB.AddY("blocks", r.BlockMB)
	sb.WriteString(figB.String())

	figC := metrics.Figure{Caption: "(c) filtered workload over cluster nodes (MB at 64MB scale)"}
	figC.AddY("without DataNet", r.NodeWithout)
	figC.AddY("with DataNet", r.NodeWith)
	sb.WriteString(figC.String())
	wo := stats.Summarize(r.NodeWithout)
	wi := stats.Summarize(r.NodeWith)
	fmt.Fprintf(&sb, "  workload max/mean: without=%.2fx  with=%.2fx; std: without=%.2f  with=%.2f\n",
		wo.ImbalanceRatio(), wi.ImbalanceRatio(), wo.Std, wi.Std)
	return sb.String()
}

// ---------------------------------------------------------------------------

// Fig6Result reproduces paper Figure 6: map execution time on the filtered
// sub-dataset — (a) the Top-K per-node distribution under both schedulers
// (paper: slowest 64 s vs fastest 5 s without DataNet), (b)(c) min/avg/max
// for MovingAverage and WordCount (the min–max gap grows with per-byte
// compute cost).
type Fig6Result struct {
	Env *Env
	// TopKWithout/TopKWith are per-node map compute times (s).
	TopKWithout, TopKWith []float64
	// Bars holds min/avg/max per app and scheduler.
	Bars []Fig6Bar
}

// Fig6Bar is one (app, scheduler) min/avg/max triple.
type Fig6Bar struct {
	App     string
	Variant string // "without" / "with"
	Min     float64
	Avg     float64
	Max     float64
}

// Fig6 derives the map-time analysis from fresh runs on env (reuse the
// Fig5 env to match the paper's workflow).
func Fig6(env *Env) (*Fig6Result, error) {
	res := &Fig6Result{Env: env}
	for _, app := range []apps.App{apps.NewTopKSearch(10, "plot twist ending amazing director"), apps.NewMovingAverage(86400), apps.WordCount{}} {
		without, err := env.RunBaseline(app)
		if err != nil {
			return nil, err
		}
		with, err := env.RunDataNet(app)
		if err != nil {
			return nil, err
		}
		wo := NodeSeries(env.Topo, without.NodeCompute)
		wi := NodeSeries(env.Topo, with.NodeCompute)
		if app.Name() == "TopKSearch" {
			res.TopKWithout, res.TopKWith = wo, wi
		}
		so, si := stats.Summarize(wo), stats.Summarize(wi)
		res.Bars = append(res.Bars,
			Fig6Bar{App: app.Name(), Variant: "without", Min: so.Min, Avg: so.Mean, Max: so.Max},
			Fig6Bar{App: app.Name(), Variant: "with", Min: si.Min, Avg: si.Mean, Max: si.Max},
		)
	}
	return res, nil
}

// String renders Figure 6.
func (r *Fig6Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6 — map execution time on the filtered sub-dataset (%s)\n", r.Env.describe())
	fig := metrics.Figure{Caption: "(a) Top-K per-node map time (s)"}
	fig.AddY("without DataNet", r.TopKWithout)
	fig.AddY("with DataNet", r.TopKWith)
	sb.WriteString(fig.String())
	so := stats.Summarize(r.TopKWithout)
	si := stats.Summarize(r.TopKWith)
	fmt.Fprintf(&sb, "  Top-K slowest/fastest: without=%.1fs/%.1fs (paper 64s/5s shape), with=%.1fs/%.1fs\n",
		so.Max, so.Min, si.Max, si.Min)
	t := metrics.NewTable("(b)(c) min/avg/max map time (s)", "application", "variant", "min", "avg", "max", "max-min gap")
	for _, b := range r.Bars {
		t.Add(b.App, b.Variant, fmt.Sprintf("%.1f", b.Min), fmt.Sprintf("%.1f", b.Avg),
			fmt.Sprintf("%.1f", b.Max), fmt.Sprintf("%.1f", b.Max-b.Min))
	}
	sb.WriteString(t.String())
	return sb.String()
}

// ---------------------------------------------------------------------------

// Fig7Result reproduces paper Figure 7: shuffle-phase execution time
// (min/avg/max per reducer) for Word Count and Top K Search under both
// schedulers. The paper observes 4–5× longer shuffles without DataNet
// because the shuffle window stays open until the last (straggling) map
// task finishes.
type Fig7Result struct {
	Env  *Env
	Rows []Fig7Row
}

// Fig7Row is one (app, variant) shuffle summary.
type Fig7Row struct {
	App     string
	Variant string
	Min     float64
	Avg     float64
	Max     float64
}

// Fig7 runs the shuffle comparison.
func Fig7(env *Env) (*Fig7Result, error) {
	res := &Fig7Result{Env: env}
	for _, app := range []apps.App{apps.WordCount{}, apps.NewTopKSearch(10, "plot twist ending amazing director")} {
		without, err := env.RunBaseline(app)
		if err != nil {
			return nil, err
		}
		with, err := env.RunDataNet(app)
		if err != nil {
			return nil, err
		}
		so := stats.Summarize(without.ShuffleDurations)
		si := stats.Summarize(with.ShuffleDurations)
		res.Rows = append(res.Rows,
			Fig7Row{App: app.Name(), Variant: "without", Min: so.Min, Avg: so.Mean, Max: so.Max},
			Fig7Row{App: app.Name(), Variant: "with", Min: si.Min, Avg: si.Mean, Max: si.Max},
		)
	}
	return res, nil
}

// Speedup returns max-shuffle(without)/max-shuffle(with) for an app.
func (r *Fig7Result) Speedup(app string) float64 {
	var wo, wi float64
	for _, row := range r.Rows {
		if row.App != app {
			continue
		}
		if row.Variant == "without" {
			wo = row.Max
		} else {
			wi = row.Max
		}
	}
	if wi == 0 {
		return 0
	}
	return wo / wi
}

// String renders Figure 7.
func (r *Fig7Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7 — shuffle-phase execution time (%s)\n", r.Env.describe())
	t := metrics.NewTable("", "application", "variant", "min", "avg", "max")
	for _, row := range r.Rows {
		t.Add(row.App, row.Variant, fmt.Sprintf("%.2f", row.Min), fmt.Sprintf("%.2f", row.Avg), fmt.Sprintf("%.2f", row.Max))
	}
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "  shuffle speedup with DataNet: WordCount %.1fx, TopKSearch %.1fx (paper: 4–5x)\n",
		r.Speedup("WordCount"), r.Speedup("TopKSearch"))
	return sb.String()
}
