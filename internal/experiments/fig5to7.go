package experiments

import (
	"fmt"

	"datanet/internal/apps"
	"datanet/internal/metrics"
	"datanet/internal/stats"
)

// Fig5 reproduces paper Figure 5 by running all four applications under
// both schedulers (Figures 6 and 7 derive from the same kind of runs):
//
//	(a) overall execution time of the four analysis jobs with/without
//	    DataNet (paper improvements: MovingAverage 20%, WordCount 39.1%,
//	    Histogram 40.6%, TopKSearch 42%);
//	(b) the target sub-dataset's size over HDFS blocks;
//	(c) the filtered workload over cluster nodes under both schedulers
//	    (taken from the Top-K run, as any app shares the layout).
func Fig5(env *Env) (*Report, error) {
	r := newReport()
	r.linef("Figure 5 — overall comparison (%s)", env.describe())
	t := metrics.NewTable("(a) overall execution time", "application", "without DataNet", "with DataNet", "improvement", "paper")
	paper := map[string]string{
		"MovingAverage": "20%", "WordCount": "39.1%", "WordHistogram": "40.6%", "TopKSearch": "42%",
	}
	var nodeWithout, nodeWith []float64
	for _, app := range apps.All() {
		c, err := env.compare(app)
		if err != nil {
			return nil, err
		}
		t.Add(app.Name(), metrics.Seconds(c.without.AnalysisTime), metrics.Seconds(c.with.AnalysisTime),
			metrics.Pct(c.gain), paper[app.Name()])
		r.Values[app.Name()+"/baseline"] = c.without.JobTime
		r.Values[app.Name()+"/datanet"] = c.with.JobTime
		r.Values[app.Name()+"/improvement"] = c.gain
		if app.Name() == "TopKSearch" {
			nodeWithout, nodeWith = env.nodeMB(c.without), env.nodeMB(c.with)
		}
	}
	r.table(t)

	figB := &metrics.Figure{Caption: "(b) target sub-dataset size over HDFS blocks (MB at 64MB scale)"}
	figB.AddY("blocks", env.blockMB())
	r.figure("b_blocks", barFigure, figB)

	figC := &metrics.Figure{Caption: "(c) filtered workload over cluster nodes (MB at 64MB scale)"}
	figC.AddY("without DataNet", nodeWithout)
	figC.AddY("with DataNet", nodeWith)
	r.figure("c_workloads", lineFigure, figC)
	wo, wi := stats.Summarize(nodeWithout), stats.Summarize(nodeWith)
	r.linef("  workload max/mean: without=%.2fx  with=%.2fx; std: without=%.2f  with=%.2f",
		wo.ImbalanceRatio(), wi.ImbalanceRatio(), wo.Std, wi.Std)
	r.Values["workload/baseline_max_avg"] = wo.ImbalanceRatio()
	r.Values["workload/datanet_max_avg"] = wi.ImbalanceRatio()
	return r, nil
}

// Fig6 reproduces paper Figure 6: map execution time on the filtered
// sub-dataset — (a) the Top-K per-node distribution under both schedulers
// (paper: slowest 64 s vs fastest 5 s without DataNet), (b)(c) min/avg/max
// for MovingAverage and WordCount (the min–max gap grows with per-byte
// compute cost). It runs fresh jobs on env (reuse the Fig5 env to match
// the paper's workflow).
func Fig6(env *Env) (*Report, error) {
	r := newReport()
	r.linef("Figure 6 — map execution time on the filtered sub-dataset (%s)", env.describe())
	t := metrics.NewTable("(b)(c) min/avg/max map time (s)", "application", "variant", "min", "avg", "max", "max-min gap")
	for _, app := range []apps.App{movieTopK(), apps.NewMovingAverage(86400), apps.WordCount{}} {
		c, err := env.compare(app)
		if err != nil {
			return nil, err
		}
		wo := NodeSeries(env.Topo, c.without.NodeCompute)
		wi := NodeSeries(env.Topo, c.with.NodeCompute)
		so, si := stats.Summarize(wo), stats.Summarize(wi)
		if app.Name() == "TopKSearch" {
			fig := &metrics.Figure{Caption: "(a) Top-K per-node map time (s)"}
			fig.AddY("without DataNet", wo)
			fig.AddY("with DataNet", wi)
			r.figure("a_maptimes", lineFigure, fig)
			r.linef("  Top-K slowest/fastest: without=%.1fs/%.1fs (paper 64s/5s shape), with=%.1fs/%.1fs",
				so.Max, so.Min, si.Max, si.Min)
		}
		for _, v := range []struct {
			variant string
			s       stats.Summary
		}{{"without", so}, {"with", si}} {
			t.Add(app.Name(), v.variant, fmt.Sprintf("%.1f", v.s.Min), fmt.Sprintf("%.1f", v.s.Mean),
				fmt.Sprintf("%.1f", v.s.Max), fmt.Sprintf("%.1f", v.s.Max-v.s.Min))
			r.Values[app.Name()+"/"+v.variant+"/gap"] = v.s.Max - v.s.Min
		}
	}
	r.table(t)
	return r, nil
}

// Fig7 reproduces paper Figure 7: shuffle-phase execution time (min/avg/max
// per reducer) for Word Count and Top K Search under both schedulers. The
// paper observes 4–5× longer shuffles without DataNet because the shuffle
// window stays open until the last (straggling) map task finishes.
func Fig7(env *Env) (*Report, error) {
	r := newReport()
	r.linef("Figure 7 — shuffle-phase execution time (%s)", env.describe())
	t := metrics.NewTable("", "application", "variant", "min", "avg", "max")
	for _, app := range []apps.App{apps.WordCount{}, movieTopK()} {
		c, err := env.compare(app)
		if err != nil {
			return nil, err
		}
		so := stats.Summarize(c.without.ShuffleDurations)
		si := stats.Summarize(c.with.ShuffleDurations)
		t.Add(app.Name(), "without", fmt.Sprintf("%.2f", so.Min), fmt.Sprintf("%.2f", so.Mean), fmt.Sprintf("%.2f", so.Max))
		t.Add(app.Name(), "with", fmt.Sprintf("%.2f", si.Min), fmt.Sprintf("%.2f", si.Mean), fmt.Sprintf("%.2f", si.Max))
		// The speedup is max-shuffle(without) / max-shuffle(with).
		speedup := 0.0
		if si.Max != 0 {
			speedup = so.Max / si.Max
		}
		r.Values[app.Name()+"/speedup"] = speedup
	}
	r.table(t)
	r.linef("  shuffle speedup with DataNet: WordCount %.1fx, TopKSearch %.1fx (paper: 4–5x)",
		r.Values["WordCount/speedup"], r.Values["TopKSearch/speedup"])
	return r, nil
}
