package experiments

import (
	"fmt"

	"datanet/internal/hdfs"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
	"datanet/internal/sched"
	"datanet/internal/sim"
)

// The placement sweep closes the loop the paper leaves open: DataNet's
// scheduler works *around* sub-dataset skew, but the data itself never
// moves. Here the distribution-aware rebalancer (hdfs.Rebalancer over
// internal/placement's hot-spot and annealing optimizers) runs between
// jobs, and the sweep isolates the two levers — scheduler knowledge vs
// placement knowledge — on the clustered workload: every job queries the
// same content-clustered sub-dataset (the most-reviewed movie, whose
// reviews concentrate around its release), so heat accumulates on the same
// few blocks. (A drifting workload, a different movie per job, was measured
// through PR 22 and retired: ≈ 0% gain for 67 MiB shipped; EXPERIMENTS.md
// keeps the numbers.)
//
// Arms: baseline (locality scheduler, no data movement), scheduler-only
// (Algorithm 1 + ElasticMap weights), placement-only (locality scheduler
// + rebalancer), and both. Makespan is the summed job time of the whole
// sequence; bytes moved is the rebalancer's network bill.

// sweepJobs is the number of sequential jobs of the workload.
const sweepJobs = 5

// sweepRebalancer builds the between-jobs rebalancer for an arm that
// moves data. Annealing runs on top of hot-spot additions ("both" mode),
// seeded off the environment seed for reproducibility.
func sweepRebalancer(fs *hdfs.FileSystem, seed int64) *hdfs.Rebalancer {
	return hdfs.NewRebalancer(fs, hdfs.RebalancerConfig{
		Mode:            hdfs.RebalanceBoth,
		Interval:        10,
		MaxReplicas:     fs.Config().Replication + 4,
		MaxMovesPerTick: 32,
		AnnealSeed:      seed,
		AnnealSteps:     4000,
	})
}

// runSweepArm runs one arm: sweepJobs sequential jobs on a fresh
// environment, with the rebalancer (when present) observing each job's
// heat profile and ticking on the sim clock between jobs. It adds the
// arm's row to t and records under clustered/<arm> the makespan — the summed simulated
// job times of the sequence — and the rebalancer's total work (zero for
// arms without placement). The first and last job's times expose the
// adaptation trend: rebalancing pays off on later jobs once replicas have
// followed the heat.
func runSweepArm(r *Report, t *metrics.Table, p MovieParams, name string, factory sched.Factory, rebalance bool) error {
	env, err := NewMovieEnv(p)
	if err != nil {
		return err
	}
	var rb *hdfs.Rebalancer
	if rebalance {
		rb = sweepRebalancer(env.FS, p.Seed)
	}
	clock := sim.NewClock()
	var makespan, firstJob, lastJob float64
	target := env.Target
	for j := 0; j < sweepJobs; j++ {
		// Every arm gets the ElasticMap weights and §V-B empty-block
		// skipping, so the only differences between arms are the picker
		// (does the *scheduler* use the distribution?) and the rebalancer
		// (does the *layout* follow it?). Arms without scheduler knowledge
		// still skip empties — otherwise full-file scan time swamps the
		// comparison.
		res, err := mapreduce.Run(mapreduce.Config{
			FS:        env.FS,
			File:      env.File,
			TargetSub: target,
			App:       movieTopK(),
			Picker:    factory,
			Weights:   env.EstimatedWeights(target),
			SkipEmpty: true,
		})
		if err != nil {
			return err
		}
		makespan += res.JobTime
		if j == 0 {
			firstJob = res.JobTime
		}
		lastJob = res.JobTime
		if rb != nil {
			// Feed the job's access heat (per-block concentration of the
			// queried sub-dataset, straight from ElasticMap) and let the
			// maintenance loop tick twice before the next job arrives.
			if err := rb.ObserveProfile(env.File, env.Array.HeatProfile(target)); err != nil {
				return err
			}
			if err := rb.Drive(clock, clock.Now()+25); err != nil {
				return err
			}
		}
	}
	var moved hdfs.RebalanceStats
	if rb != nil {
		moved = rb.Stats()
	}
	t.Add(name, fmt.Sprintf("%.1f", makespan), fmt.Sprintf("%.1f", firstJob),
		fmt.Sprintf("%.1f", lastJob), fmt.Sprintf("%d", moved.Moves), metricsBytes(moved.BytesMoved))
	key := "clustered/" + name
	r.Values[key] = makespan
	r.Values[key+"/first_job"] = firstJob
	r.Values[key+"/last_job"] = lastJob
	r.Values[key+"/moves"] = float64(moved.Moves)
	r.Values[key+"/bytes_moved"] = float64(moved.BytesMoved)
	return nil
}

// PlacementSweep runs the full scheduler×placement sweep at the given
// scale (default movie parameters when zero).
func PlacementSweep(p MovieParams) (*Report, error) {
	if p.Nodes == 0 {
		p = DefaultMovieParams()
	}
	arms := []struct {
		name      string
		factory   sched.Factory
		rebalance bool
	}{
		{"baseline", sched.NewLocalityPicker, false},
		{"scheduler-only", sched.NewDataNetPicker, false},
		{"placement-only", sched.NewLocalityPicker, true},
		{"both", sched.NewDataNetPicker, true},
	}
	r := newReport()
	t := metrics.NewTable(
		fmt.Sprintf("Extension — placement sweep (clustered workload, %d jobs)", sweepJobs),
		"arm", "makespan (s)", "first job", "last job", "moves", "bytes moved")
	for _, a := range arms {
		if err := runSweepArm(r, t, p, a.name, a.factory, a.rebalance); err != nil {
			return nil, err
		}
	}
	r.table(t)
	if sched, both := r.Values["clustered/scheduler-only"], r.Values["clustered/both"]; sched > 0 {
		r.linef("  (clustered: scheduler+placement vs scheduler-only: %s makespan, %s shipped)",
			metrics.Pct((sched-both)/sched), metricsBytes(int64(r.Values["clustered/both/bytes_moved"])))
	}
	return r, nil
}
