package experiments

import (
	"fmt"
	"reflect"
	"strings"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/elasticmap"
	"datanet/internal/faults"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
	"datanet/internal/records"
	"datanet/internal/sched"
)

// This experiment evaluates the failure-aware execution paths the paper's
// healthy-cluster evaluation never exercises: node crashes mid-filter with
// HDFS re-replication and task retry, compared across DataNet, the
// hadoop-locality baseline, and speculative execution — plus the
// degraded-metadata arm, where a corrupt ElasticMap encoding must demote
// DataNet to the locality baseline rather than fail the job.

// FaultTolRow is one (scheduler, fault plan) outcome.
type FaultTolRow struct {
	Scheduler string
	// Crashes is the number of nodes killed; CrashFrac is when, as a
	// fraction of the fault-free filter makespan.
	Crashes   int
	CrashFrac float64
	JobTime   float64
	// Slowdown is JobTime relative to the same scheduler's fault-free run.
	Slowdown float64
	Retried  int
	Lost     int
	Repaired int
	// OutputOK reports the executed output matched the fault-free run —
	// the correctness contract of crash recovery.
	OutputOK bool
}

// FaultTolResult is the fault-tolerance sweep.
type FaultTolResult struct {
	Rows     []FaultTolRow
	Counters metrics.FaultCounters
	// FallbackSched is the scheduler name recorded by the
	// degraded-metadata run; FallbackOK reports its output still matched.
	FallbackSched string
	FallbackOK    bool
}

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
// the stored data, as ElasticMap's is). Crashes mutate the replica map, so
// each job runs on its own Clone of the filesystem; the record slices and
// the map output are immutable and shared.
type faultFixture struct {
	fs  *hdfs.FileSystem
	out *mapreduce.MapOutput
}

func newFaultFixture(recs []records.Record, p MovieParams) (*faultFixture, error) {
	topo, err := scaledTopology(p.Nodes, p.Racks, p.BlockBytes)
	if err != nil {
		return nil, err
	}
	fs, err := hdfs.NewFileSystem(topo, hdfs.Config{BlockSize: p.BlockBytes, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	if _, err := fs.Write("dataset.log", recs); err != nil {
		return nil, err
	}
	out, err := mapreduce.MapFile(fs, "dataset.log", apps.WordCount{}, gen.MovieID(0))
	if err != nil {
		return nil, err
	}
	return &faultFixture{fs, out}, nil
}

// config is the executed locality job every sweep cell starts from, over a
// fresh clone of the fixture.
func (f *faultFixture) config() mapreduce.Config {
	return mapreduce.Config{
		FS: f.fs.Clone(), File: "dataset.log", TargetSub: gen.MovieID(0),
		App: apps.WordCount{}, Picker: sched.NewLocalityPicker, ExecuteApp: true,
		MapOutput: f.out,
	}
}

// FaultTolerance sweeps crash count and timing across schedulers.
func FaultTolerance(p MovieParams) (*FaultTolResult, error) {
	if p.Nodes <= 0 {
		p = DefaultFaultParams()
	}
	recs := movieLog(p)
	target := gen.MovieID(0)
	fix, err := newFaultFixture(recs, p)
	if err != nil {
		return nil, err
	}

	// ElasticMap weights, built once: the block split is a pure function
	// of block size and record stream, identical across fs instances.
	env, err := buildEnv(recs, p.Nodes, p.Racks, hdfs.Config{BlockSize: p.BlockBytes, Seed: p.Seed}, p.Alpha, target)
	if err != nil {
		return nil, err
	}
	weights := env.EstimatedWeights(target)

	schedulers := []struct {
		name  string
		tweak func(*mapreduce.Config)
	}{
		{"hadoop-locality", func(c *mapreduce.Config) {}},
		{"datanet", func(c *mapreduce.Config) {
			c.Picker = sched.NewDataNetPicker
			c.Weights = weights
		}},
		{"speculative", func(c *mapreduce.Config) { c.Speculative = true }},
	}

	res := &FaultTolResult{}
	for _, s := range schedulers {
		// Fault-free reference run (also calibrates the crash clock).
		cfg := fix.config()
		s.tweak(&cfg)
		clean, err := mapreduce.Run(cfg)
		if err != nil {
			return nil, err
		}
		// Crash-count sweep at mid-filter, then a timing sweep at 2 crashes.
		type arm struct {
			crashes int
			frac    float64
		}
		arms := []arm{{0, 0.5}, {1, 0.5}, {2, 0.5}, {4, 0.5}, {2, 0.25}, {2, 0.75}}
		for _, a := range arms {
			cfg := fix.config()
			s.tweak(&cfg)
			plan := &faults.Plan{Seed: p.Seed}
			at := clean.FilterEnd * a.frac
			for k := 0; k < a.crashes; k++ {
				// Victims spread over both racks (ids interleave racks).
				plan.Crashes = append(plan.Crashes, faults.Crash{
					Node: cluster.NodeID(2 + 3*k), At: at,
				})
			}
			cfg.Faults = plan
			r, err := mapreduce.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("faulttol %s crashes=%d: %w", s.name, a.crashes, err)
			}
			row := FaultTolRow{
				Scheduler: s.name,
				Crashes:   a.crashes,
				CrashFrac: a.frac,
				JobTime:   r.JobTime,
				Retried:   r.TasksRetried,
				Lost:      r.LostOutputs,
				Repaired:  r.ReplicasRepaired,
				OutputOK:  reflect.DeepEqual(r.Output, clean.Output),
			}
			if clean.JobTime > 0 {
				row.Slowdown = r.JobTime / clean.JobTime
			}
			res.Rows = append(res.Rows, row)
			res.Counters.Observe(r.NodeCrashes, r.TasksRetried, r.TransientErrors,
				r.LostOutputs, r.ReplicasRepaired, r.SpeculativeWins, r.MetadataFallback)
		}
	}

	// Degraded-metadata arm: the DataNet job's ElasticMap encoding is
	// corrupt; the run must demote itself to the locality baseline,
	// record the fallback, and still produce the right answer.
	ref, err := mapreduce.Run(fix.config())
	if err != nil {
		return nil, err
	}
	cfg := fix.config()
	cfg.Picker = sched.NewDataNetPicker
	cfg.WeightsErr = elasticmap.ErrCodec
	fb, err := mapreduce.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("faulttol metadata fallback: %w", err)
	}
	res.FallbackSched = fb.SchedulerName
	res.FallbackOK = fb.MetadataFallback && reflect.DeepEqual(fb.Output, ref.Output)
	res.Counters.Observe(fb.NodeCrashes, fb.TasksRetried, fb.TransientErrors,
		fb.LostOutputs, fb.ReplicasRepaired, fb.SpeculativeWins, fb.MetadataFallback)
	return res, nil
}

// String renders the sweep.
func (r *FaultTolResult) String() string {
	t := metrics.NewTable("Robustness — crash recovery across schedulers (fault-injection sweep)",
		"scheduler", "crashes", "at", "job time", "slowdown", "retried", "lost", "repaired", "output")
	for _, row := range r.Rows {
		ok := "ok"
		if !row.OutputOK {
			ok = "DIVERGED"
		}
		t.Add(row.Scheduler, fmt.Sprint(row.Crashes),
			fmt.Sprintf("%.0f%% filter", 100*row.CrashFrac),
			metrics.Seconds(row.JobTime), fmt.Sprintf("%.2fx", row.Slowdown),
			fmt.Sprint(row.Retried), fmt.Sprint(row.Lost), fmt.Sprint(row.Repaired), ok)
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString(r.Counters.Table("Fault-handling totals across the sweep").String())
	fmt.Fprintf(&sb, "  degraded metadata: scheduler %q, output correct: %v\n", r.FallbackSched, r.FallbackOK)
	sb.WriteString("  (crash recovery re-runs lost filter tasks on surviving replica holders; the job's answer must never change)\n")
	return sb.String()
}
