package experiments

import (
	"fmt"

	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
)

// The placement sweep isolates scheduler knowledge on the clustered
// workload: the job queries one content-clustered sub-dataset (the
// most-reviewed movie, whose reviews concentrate around its release), so
// its blocks are few and heavy. Arms: baseline (locality scheduler) and
// scheduler-only (Algorithm 1 + ElasticMap weights). The data never moves,
// so a repeated job would time the same schedule again: one job per arm is
// the whole measurement.

// runSweepArm runs one arm's job on a fresh environment, adds its row to t
// and records its simulated job time under clustered/<arm>.
func runSweepArm(r *Report, t *metrics.Table, p MovieParams, a arm) error {
	env, err := NewMovieEnv(p)
	if err != nil {
		return err
	}
	// Both arms get the ElasticMap weights and §V-B empty-block skipping,
	// so the only difference between them is the picker. The locality arm
	// still skips empties — otherwise full-file scan time swamps the
	// comparison.
	cfg := env.job(movieTopK(), a.policy)
	cfg.Weights, cfg.SkipEmpty = env.Array.Weights(env.Target), true
	res, err := mapreduce.Run(cfg)
	if err != nil {
		return err
	}
	t.Add(a.name, fmt.Sprintf("%.1f", res.JobTime))
	r.Values["clustered/"+a.name] = res.JobTime
	return nil
}

// PlacementSweep runs both arms at the given scale (default movie
// parameters when zero).
func PlacementSweep(p MovieParams) (*Report, error) {
	if p.Nodes == 0 {
		p = DefaultMovieParams()
	}
	r := newReport()
	t := metrics.NewTable("Extension — placement sweep (clustered workload)", "arm", "job time (s)")
	for _, a := range []arm{{"baseline", locality}, {"scheduler-only", dataNet}} {
		if err := runSweepArm(r, t, p, a); err != nil {
			return nil, err
		}
	}
	r.table(t)
	return r, nil
}
