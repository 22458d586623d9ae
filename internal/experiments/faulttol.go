package experiments

import (
	"fmt"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/elasticmap"
	"datanet/internal/faults"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
)

// This experiment evaluates the failure-aware execution paths the paper's
// healthy-cluster evaluation never exercises: node crashes mid-filter with
// HDFS re-replication and task retry, compared across DataNet, the
// hadoop-locality baseline, and speculative execution — plus the
// degraded-metadata arm, where a corrupt ElasticMap encoding must demote
// DataNet to the locality baseline rather than fail the job.

// DefaultFaultParams sizes the fault-tolerance environment: 16 nodes in 2
// racks, 64 blocks of 64 KiB — small enough that the ~20 runs of the
// sweep stay fast, large enough that every node owns filter work.
func DefaultFaultParams() MovieParams {
	return MovieParams{
		Nodes:      16,
		Racks:      2,
		Blocks:     64,
		BlockBytes: 64 << 10,
		Movies:     500,
		Alpha:      elasticmap.DefaultAlpha,
		Seed:       42,
	}
}

// faultFixture is the dataset a fault sweep runs its many executed jobs
// over, built once: the written filesystem and WordCount's per-block map
// output for the analysed movie (a block's content is a fixed property of
// the stored data, as ElasticMap's is) and, once estimated, its ElasticMap
// weights. Crashes mutate the replica map, so each job runs on its own
// Clone of the filesystem; the rest is immutable and shared.
type faultFixture struct {
	log     *dataLog
	fs      *hdfs.FileSystem
	out     *mapreduce.MapOutput
	weights []int64
}

func newFaultFixture(p MovieParams) (*faultFixture, error) {
	log := movieLog(p)
	fs, err := storeLog(log, hdfs.ScaledNodes(p.Nodes, p.Racks, p.BlockBytes), p.Racks, hdfs.Config{BlockSize: p.BlockBytes, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	out, err := mapreduce.MapFile(fs, logFile, apps.WordCount{}, gen.MovieID(0))
	if err != nil {
		return nil, err
	}
	return &faultFixture{log: log, fs: fs, out: out}, nil
}

// estimate separates the fixture's ElasticMap at hash share alpha from
// the log's block scans, once, for the sweeps with a DataNet arm.
func (f *faultFixture) estimate(alpha float64) error {
	perBlock, err := f.fs.BlockRecords(logFile)
	if err != nil {
		return err
	}
	scans := f.log.scanned(perBlock, f.fs.Config().BlockSize)
	f.weights = elasticmap.FromScans(scans.blocks, elasticmap.Options{Alpha: alpha, BucketBounds: scans.bounds}).Weights(gen.MovieID(0))
	return nil
}

// job is the executed job of a sweep cell under b, over a fresh clone of
// the fixture.
func (f *faultFixture) job(b mapreduce.Bundle) mapreduce.Config {
	cfg := job(f.fs.Clone(), logFile, gen.MovieID(0), apps.WordCount{}, b, f.weights)
	cfg.ExecuteApp, cfg.MapOutput = true, f.out
	return cfg
}

// faultArms are the scheduler arms the fault sweeps compare, in order; the
// detector sweep takes the first two. The speculative arm adds Hadoop's
// analysis-barrier backups to the locality baseline: no line spells them.
var faultArms = []arm{
	{"hadoop-locality", locality},
	{"datanet", dataNet},
	{"speculative", locality},
}

// observe folds one run's fault-handling work into a sweep's totals.
func observe(c *metrics.FaultCounters, r *mapreduce.Result) {
	c.Observe(r.NodeCrashes, r.TasksRetried, r.TransientErrors,
		r.LostOutputs, r.ReplicasRepaired, r.SpeculativeWins, r.MetadataFallback)
}

// FaultTolerance sweeps crash count and timing across schedulers. A cell's
// key is <scheduler>/<crashes>@<when, as a fraction of the fault-free
// filter makespan>; its slowdown is relative to the same scheduler's
// fault-free run, and its output must match that run's — the correctness
// contract of crash recovery.
func FaultTolerance(p MovieParams) (*Report, error) {
	if p.Nodes <= 0 {
		p = DefaultFaultParams()
	}
	fix, err := newFaultFixture(p)
	if err != nil {
		return nil, err
	}
	if err := fix.estimate(p.Alpha); err != nil {
		return nil, err
	}

	r := newReport()
	t := metrics.NewTable("Robustness — crash recovery across schedulers (fault-injection sweep)",
		"scheduler", "crashes", "at", "job time", "slowdown", "retried", "lost", "repaired", "output")
	var counters metrics.FaultCounters
	for _, s := range faultArms {
		// Fault-free reference run (also calibrates the crash clock).
		cfg := fix.job(s.policy)
		cfg.Speculative = s.name == "speculative"
		clean, err := mapreduce.Run(cfg)
		if err != nil {
			return nil, err
		}
		// Crash-count sweep at mid-filter, then a timing sweep at 2 crashes.
		for _, a := range []struct {
			crashes int
			frac    float64
		}{{0, 0.5}, {1, 0.5}, {2, 0.5}, {4, 0.5}, {2, 0.25}, {2, 0.75}} {
			cfg := fix.job(s.policy)
			cfg.Speculative = s.name == "speculative"
			plan := &faults.Plan{Seed: p.Seed}
			for k := 0; k < a.crashes; k++ {
				// Victims spread over both racks (ids interleave racks).
				plan.Crashes = append(plan.Crashes, faults.Crash{
					Node: cluster.NodeID(2 + 3*k), At: clean.FilterEnd * a.frac,
				})
			}
			cfg.Faults = plan
			run, err := mapreduce.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("faulttol %s crashes=%d: %w", s.name, a.crashes, err)
			}
			slowdown := 0.0
			if clean.JobTime > 0 {
				slowdown = run.JobTime / clean.JobTime
			}
			t.Add(s.name, fmt.Sprint(a.crashes), fmt.Sprintf("%.0f%% filter", 100*a.frac),
				metrics.Seconds(run.JobTime), fmt.Sprintf("%.2fx", slowdown),
				fmt.Sprint(run.TasksRetried), fmt.Sprint(run.LostOutputs), fmt.Sprint(run.ReplicasRepaired),
				r.outputCell(run.Output, clean.Output))
			key := fmt.Sprintf("%s/%d@%.2f", s.name, a.crashes, a.frac)
			r.Values[key] = run.JobTime
			r.Values[key+"/slowdown"] = slowdown
			r.Values[key+"/recovered"] = float64(run.TasksRetried + run.LostOutputs)
			r.Values[key+"/repaired"] = float64(run.ReplicasRepaired)
			observe(&counters, run)
		}
	}
	r.table(t)

	// Degraded-metadata arm: the DataNet job's ElasticMap encoding is
	// corrupt; the run must demote itself to the locality baseline,
	// record the fallback, and still produce the right answer.
	ref, err := mapreduce.Run(fix.job(locality))
	if err != nil {
		return nil, err
	}
	cfg := fix.job(dataNet)
	cfg.WeightsErr = elasticmap.ErrCodec
	fb, err := mapreduce.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("faulttol metadata fallback: %w", err)
	}
	observe(&counters, fb)
	fallbackOK := fb.MetadataFallback && r.outputCell(fb.Output, ref.Output) == "ok"
	r.table(counters.Table("Fault-handling totals across the sweep"))
	r.linef("  degraded metadata: scheduler %q, output correct: %v", fb.SchedulerName, fallbackOK)
	r.linef("  (crash recovery re-runs lost filter tasks on surviving replica holders; the job's answer must never change)")
	r.Values["node_crashes"] = float64(counters.NodeCrashes)
	r.Values["metadata_fallbacks"] = float64(counters.MetadataFallbacks)
	return r, nil
}
