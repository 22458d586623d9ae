package experiments

import (
	"datanet/internal/apps"
	"datanet/internal/faults"
	"datanet/internal/mapreduce"
	"datanet/internal/trace"
)

// Timeline records one fully traced run for the HTML report's per-run
// timeline (it is not a suite section): a DataNet-scheduled TopKSearch job
// with a mid-filter crash (and later rejoin), so the rendered Gantt chart
// shows scheduler decisions, re-replication, retries on surviving replica
// holders and the recovery tail — the per-run view the aggregate figures
// cannot give — followed by the run's metrics digest. Zero-value params
// take DefaultFaultParams (the small fault-tolerance environment).
func Timeline(p MovieParams) (*Report, error) {
	if p.Nodes <= 0 {
		p = DefaultFaultParams()
	}
	env, err := NewMovieEnv(p)
	if err != nil {
		return nil, err
	}
	base := env.job(apps.NewTopKSearch(10, "plot twist ending"), dataNet)
	// Scale the crash to the run: a fault-free pass fixes the filter
	// makespan, then the traced run kills one node at 40% of it (rejoining
	// at 160%, mid-analysis). The fault-free pass does not mutate the
	// filesystem, so both runs see the same layout.
	dry, err := mapreduce.Run(base)
	if err != nil {
		return nil, err
	}
	crashAt := 0.4 * dry.FilterEnd
	rejoinAt := 1.6 * dry.FilterEnd
	rec := trace.New()
	cfg := base
	cfg.Trace = rec
	cfg.Faults = &faults.Plan{
		Seed:    p.Seed,
		Crashes: []faults.Crash{{Node: 3, At: crashAt, RejoinAt: rejoinAt}},
	}
	if _, err := mapreduce.Run(cfg); err != nil {
		return nil, err
	}
	r := newReport()
	r.linef("One DataNet-scheduled TopKSearch run, traced: node 3 crashes at %.2f s (red line) and rejoins at %.2f s (green dashed). Spans show filter attempts per node; failed attempts and the recovery tail are visible directly. Export the same timeline with `datanet analyze -out chrome=out.json` and load it in Perfetto for the interactive view.",
		crashAt, rejoinAt)
	r.blocks = append(r.blocks, block{gantt: rec.Gantt()})
	for _, t := range rec.Snapshot().Tables("Run metrics") {
		r.table(t)
	}
	r.Values["crash_at"] = crashAt
	r.Values["rejoin_at"] = rejoinAt
	return r, nil
}
