package experiments

import (
	"fmt"

	"datanet/internal/elasticmap"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
	"datanet/internal/sched"
)

// BucketAblation compares bucket-bound shapes for the dominant sub-dataset
// separator (DESIGN.md §5): the paper's Fibonacci intervals vs uniform and
// power-of-two bounds, at the default α target.
func BucketAblation(env *Env) (*Report, error) {
	allSubs := make([]string, 0, len(env.Truth))
	for sub := range env.Truth {
		allSubs = append(allSubs, sub)
	}
	bs := env.FS.Config().BlockSize
	shapes := []struct {
		name   string
		bounds []int64
	}{
		{"fibonacci", elasticmap.FibonacciBounds(bs)},
		{"power-of-two", elasticmap.PowerOfTwoBounds(bs)},
		{"uniform-16", elasticmap.UniformBounds(bs, 16)},
		{"uniform-64", elasticmap.UniformBounds(bs, 64)},
	}
	r := newReport()
	t := metrics.NewTable("Ablation — bucket bounds for dominant-sub-dataset separation",
		"shape", "buckets", "α realized", "accuracy χ", "repr. ratio")
	for _, s := range shapes {
		opts := env.Opts
		opts.BucketBounds = s.bounds
		arr := elasticmap.FromScans(env.Scans, opts)
		accuracy, ratio := arr.OverallAccuracy(allSubs), arr.RepresentationRatio()
		t.Add(s.name, fmt.Sprint(len(s.bounds)), metrics.Pct(arr.MeanAlpha()),
			metrics.Pct(accuracy), fmt.Sprintf("%.0f", ratio))
		r.Values[s.name+"/accuracy"] = accuracy
		r.Values[s.name+"/ratio"] = ratio
	}
	r.table(t)
	return r, nil
}

// SchedulerAblation compares the scheduler family on the same environment
// with Top-K (the compute-heavy app where scheduling matters most): Hadoop
// locality, Algorithm 1, max-flow optimal, LPT greedy and random-local.
// The time reported is the analysis job's execution time (excluding the
// shared filter pass, the paper's metric).
func SchedulerAblation(env *Env) (*Report, error) {
	app := movieTopK()
	r := newReport()
	t := metrics.NewTable(fmt.Sprintf("Ablation — scheduler family (%s on %s)", app.Name(), env.describe()),
		"scheduler", "analysis time", "workload max/avg", "local tasks")
	for _, a := range []struct {
		line   string
		picker sched.Factory // a picker with no sched.Policy row replaces the line's
	}{
		{"-sched locality", nil},
		{"-sched locality", sched.NewDelayedLocalityPicker(3)},
		{"-sched datanet", nil},
		{"-sched capacity", nil},
		{"-sched maxflow", nil},
		{"-sched lpt", nil},
		{"-sched locality", sched.NewRandomPicker(1)},
	} {
		cfg := env.job(app, policy(a.line))
		if a.picker != nil {
			cfg.Picker = a.picker
		}
		run, err := mapreduce.Run(cfg)
		if err != nil {
			return nil, err
		}
		localFrac := 0.0
		if run.LocalTasks+run.RemoteTasks > 0 {
			localFrac = float64(run.LocalTasks) / float64(run.LocalTasks+run.RemoteTasks)
		}
		imbalance := env.maxOverAvg(run)
		t.Add(run.SchedulerName, metrics.Seconds(run.AnalysisTime),
			fmt.Sprintf("%.2f", imbalance), metrics.Pct(localFrac))
		r.Values[run.SchedulerName] = run.AnalysisTime
		r.Values[run.SchedulerName+"/max_over_avg"] = imbalance
	}
	r.table(t)
	return r, nil
}
