package experiments

import (
	"fmt"
	"strings"

	"datanet/internal/apps"
	"datanet/internal/gen"
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
// placement knowledge — under two workload shapes:
//
//   - clustered: every job queries the same content-clustered
//     sub-dataset (the most-reviewed movie, whose reviews concentrate
//     around its release), so heat accumulates on the same few blocks.
//   - drifting: each job queries a different movie, so yesterday's hot
//     blocks are today's cold ones and heat decay must keep up.
//
// Arms: baseline (locality scheduler, no data movement), scheduler-only
// (Algorithm 1 + ElasticMap weights), placement-only (locality scheduler
// + rebalancer), and both. Makespan is the summed job time of the whole
// sequence; bytes moved is the rebalancer's network bill.

// SweepJobs is the number of sequential jobs per workload.
const SweepJobs = 5

// SweepArm is one (scheduler, placement) combination's outcome over a
// job sequence.
type SweepArm struct {
	Name string
	// Makespan sums the simulated job times of the sequence.
	Makespan float64
	// FirstJob and LastJob expose the adaptation trend: rebalancing pays
	// off on later jobs once replicas have followed the heat.
	FirstJob, LastJob float64
	// Moves and BytesMoved total the rebalancer's work (zero for arms
	// without placement).
	Moves      int
	BytesMoved int64
}

// SweepWorkload is one workload shape's arm comparison.
type SweepWorkload struct {
	Name string
	Arms []SweepArm
}

// PlacementSweepResult is the full sweep.
type PlacementSweepResult struct {
	Workloads []SweepWorkload
}

// sweepTargets returns the job-sequence targets for a workload shape.
func sweepTargets(shape string) []string {
	out := make([]string, SweepJobs)
	for j := range out {
		if shape == "clustered" {
			out[j] = gen.MovieID(0)
		} else {
			// Drift across popularity ranks: a fresh target every job.
			out[j] = gen.MovieID(j)
		}
	}
	return out
}

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

// runSweepArm runs one arm: SweepJobs sequential jobs on a fresh
// environment, with the rebalancer (when present) observing each job's
// heat profile and ticking on the sim clock between jobs.
func runSweepArm(p MovieParams, name string, targets []string, factory sched.Factory, rebalance bool) (SweepArm, error) {
	arm := SweepArm{Name: name}
	env, err := NewMovieEnv(p)
	if err != nil {
		return arm, err
	}
	var rb *hdfs.Rebalancer
	if rebalance {
		rb = sweepRebalancer(env.FS, p.Seed)
	}
	clock := sim.NewClock()
	for j, target := range targets {
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
			App:       apps.NewTopKSearch(10, "plot twist ending amazing director"),
			Picker:    factory,
			Weights:   env.EstimatedWeights(target),
			SkipEmpty: true,
		})
		if err != nil {
			return arm, err
		}
		arm.Makespan += res.JobTime
		if j == 0 {
			arm.FirstJob = res.JobTime
		}
		arm.LastJob = res.JobTime
		if rb != nil {
			// Feed the job's access heat (per-block concentration of the
			// queried sub-dataset, straight from ElasticMap) and let the
			// maintenance loop tick twice before the next job arrives.
			if err := rb.ObserveProfile(env.File, env.Array.HeatProfile(target)); err != nil {
				return arm, err
			}
			if err := rb.Drive(clock, clock.Now()+25); err != nil {
				return arm, err
			}
		}
	}
	if rb != nil {
		st := rb.Stats()
		arm.Moves = st.Moves
		arm.BytesMoved = st.BytesMoved
	}
	return arm, nil
}

// PlacementSweep runs the full scheduler×placement sweep at the given
// scale (default movie parameters when zero).
func PlacementSweep(p MovieParams) (*PlacementSweepResult, error) {
	if p.Nodes == 0 {
		p = DefaultMovieParams()
	}
	type armSpec struct {
		name      string
		factory   sched.Factory
		rebalance bool
	}
	arms := []armSpec{
		{"baseline", sched.NewLocalityPicker, false},
		{"scheduler-only", sched.NewDataNetPicker, false},
		{"placement-only", sched.NewLocalityPicker, true},
		{"both", sched.NewDataNetPicker, true},
	}
	res := &PlacementSweepResult{}
	for _, shape := range []string{"clustered", "drifting"} {
		wl := SweepWorkload{Name: shape}
		targets := sweepTargets(shape)
		for _, a := range arms {
			arm, err := runSweepArm(p, a.name, targets, a.factory, a.rebalance)
			if err != nil {
				return nil, err
			}
			wl.Arms = append(wl.Arms, arm)
		}
		res.Workloads = append(res.Workloads, wl)
	}
	return res, nil
}

// arm returns the named arm of a workload (nil when absent).
func (w *SweepWorkload) arm(name string) *SweepArm {
	for i := range w.Arms {
		if w.Arms[i].Name == name {
			return &w.Arms[i]
		}
	}
	return nil
}

// String renders the sweep.
func (r *PlacementSweepResult) String() string {
	var sb strings.Builder
	for wi, wl := range r.Workloads {
		t := metrics.NewTable(
			fmt.Sprintf("Extension — placement sweep (%s workload, %d jobs)", wl.Name, SweepJobs),
			"arm", "makespan (s)", "first job", "last job", "moves", "bytes moved")
		for _, a := range wl.Arms {
			t.Add(a.Name, fmt.Sprintf("%.1f", a.Makespan), fmt.Sprintf("%.1f", a.FirstJob),
				fmt.Sprintf("%.1f", a.LastJob), fmt.Sprintf("%d", a.Moves), metricsBytes(a.BytesMoved))
		}
		sb.WriteString(t.String())
		if sched, both := wl.arm("scheduler-only"), wl.arm("both"); sched != nil && both != nil && sched.Makespan > 0 {
			gain := (sched.Makespan - both.Makespan) / sched.Makespan
			sb.WriteString(fmt.Sprintf("  (%s: scheduler+placement vs scheduler-only: %s makespan, %s shipped)\n",
				wl.Name, metrics.Pct(gain), metricsBytes(both.BytesMoved)))
		}
		if wi < len(r.Workloads)-1 {
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// SimMakespans exposes per-workload, per-arm makespans to the suite
// report.
func (r *PlacementSweepResult) SimMakespans() map[string]float64 {
	m := make(map[string]float64)
	for _, wl := range r.Workloads {
		for _, a := range wl.Arms {
			m[wl.Name+"/"+a.Name] = a.Makespan
		}
	}
	return m
}

// Counters exposes the data-movement bill to the suite report.
func (r *PlacementSweepResult) Counters() map[string]int64 {
	m := make(map[string]int64)
	for _, wl := range r.Workloads {
		for _, a := range wl.Arms {
			if a.Moves > 0 {
				m[wl.Name+"/"+a.Name+"/moves"] = int64(a.Moves)
				m[wl.Name+"/"+a.Name+"/bytes_moved"] = a.BytesMoved
			}
		}
	}
	return m
}
