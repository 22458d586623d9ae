package experiments

import (
	"fmt"

	"datanet/internal/apps"
	"datanet/internal/elasticmap"
	"datanet/internal/metrics"
	"datanet/internal/sched"
	"datanet/internal/stats"
)

// BucketAblationResult compares bucket-bound shapes for the dominant
// sub-dataset separator (DESIGN.md §5): the paper's Fibonacci intervals vs
// uniform and power-of-two bounds, at identical α targets.
type BucketAblationResult struct {
	Env  *Env
	Rows []BucketAblationRow
}

// BucketAblationRow is one bound shape's outcome.
type BucketAblationRow struct {
	Shape         string
	Buckets       int
	RealizedAlpha float64
	Accuracy      float64
	Ratio         float64
}

// BucketAblation runs the comparison at the default α.
func BucketAblation(env *Env) (*BucketAblationResult, error) {
	perBlock, err := env.FS.BlockRecords(env.File)
	if err != nil {
		return nil, err
	}
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
	res := &BucketAblationResult{Env: env}
	for _, s := range shapes {
		opts := env.Opts
		opts.BucketBounds = s.bounds
		arr := elasticmap.Build(perBlock, opts)
		res.Rows = append(res.Rows, BucketAblationRow{
			Shape:         s.name,
			Buckets:       len(s.bounds),
			RealizedAlpha: arr.MeanAlpha(),
			Accuracy:      arr.OverallAccuracy(allSubs),
			Ratio:         arr.RepresentationRatio(),
		})
	}
	return res, nil
}

// String renders the ablation.
func (r *BucketAblationResult) String() string {
	t := metrics.NewTable("Ablation — bucket bounds for dominant-sub-dataset separation",
		"shape", "buckets", "α realized", "accuracy χ", "repr. ratio")
	for _, row := range r.Rows {
		t.Add(row.Shape, fmt.Sprint(row.Buckets), metrics.Pct(row.RealizedAlpha),
			metrics.Pct(row.Accuracy), fmt.Sprintf("%.0f", row.Ratio))
	}
	return t.String()
}

// ---------------------------------------------------------------------------

// SchedulerAblationResult compares the scheduler family on the same
// environment and application: Hadoop locality, Algorithm 1, max-flow
// optimal, LPT greedy and random-local.
type SchedulerAblationResult struct {
	Env  *Env
	App  string
	Rows []SchedulerAblationRow
}

// SchedulerAblationRow is one scheduler's outcome. JobTime is the analysis
// job's execution time (excluding the shared filter pass, the paper's
// metric).
type SchedulerAblationRow struct {
	Scheduler  string
	JobTime    float64
	MaxOverAvg float64
	LocalFrac  float64
}

// SchedulerAblation runs the comparison with Top-K (the compute-heavy app
// where scheduling matters most).
func SchedulerAblation(env *Env) (*SchedulerAblationResult, error) {
	app := apps.NewTopKSearch(10, "plot twist ending amazing director")
	weights := env.EstimatedWeights(env.Target)
	factories := []struct {
		f sched.Factory
		w []int64
	}{
		{sched.NewLocalityPicker, nil},
		{sched.NewDelayedLocalityPicker(3), nil},
		{sched.NewDataNetPicker, weights},
		{sched.NewCapacityAwarePicker, weights},
		{sched.NewFlowPicker, weights},
		{sched.NewLPTPicker, weights},
		{sched.NewRandomPicker(1), nil},
	}
	res := &SchedulerAblationResult{Env: env, App: app.Name()}
	for _, fc := range factories {
		run, err := env.RunWith(app, fc.f, fc.w, false)
		if err != nil {
			return nil, err
		}
		loads := NodeSeries(env.Topo, run.NodeWorkload)
		s := stats.Summarize(loads)
		localFrac := 0.0
		if run.LocalTasks+run.RemoteTasks > 0 {
			localFrac = float64(run.LocalTasks) / float64(run.LocalTasks+run.RemoteTasks)
		}
		res.Rows = append(res.Rows, SchedulerAblationRow{
			Scheduler:  run.SchedulerName,
			JobTime:    run.AnalysisTime,
			MaxOverAvg: s.ImbalanceRatio(),
			LocalFrac:  localFrac,
		})
	}
	return res, nil
}

// String renders the ablation.
func (r *SchedulerAblationResult) String() string {
	t := metrics.NewTable(fmt.Sprintf("Ablation — scheduler family (%s on %s)", r.App, r.Env.describe()),
		"scheduler", "analysis time", "workload max/avg", "local tasks")
	for _, row := range r.Rows {
		t.Add(row.Scheduler, metrics.Seconds(row.JobTime), fmt.Sprintf("%.2f", row.MaxOverAvg), metrics.Pct(row.LocalFrac))
	}
	return t.String()
}
