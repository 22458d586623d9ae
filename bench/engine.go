package main

import (
	"fmt"
	"time"

	"datanet"
	"datanet/internal/apps"
	"datanet/internal/gen"
	"datanet/internal/graph"
	"datanet/internal/hdfs"
	"datanet/internal/mapreduce"
	"datanet/internal/partition"
	"datanet/internal/records"
	"datanet/internal/sched"
	"datanet/internal/sim"
)

// engineArm is one configuration family of the engine job list; its jobs
// differ only in their target sub-dataset (MovieID(0), MovieID(1), …).
type engineArm struct {
	name string // the per-layer metric is mapreduce.<name>_ms
	jobs int    // at EngineReps = 1
	// freshFS marks arms whose fault plan makes the engine mutate the
	// filesystem (a crash re-replicates blocks), so a second identical job
	// would see another layout: each such job gets a filesystem written
	// outside the timed region.
	freshFS bool
	config  func(e *engineInst, cfg *mapreduce.Config)
}

// engineArms is the fixed job list; plain arms dominate by count, as they
// do in use. The max-flow scheduler is not in it: its job wall depends on the
// path its load-cap search and augmenting paths take through the weights,
// 0.4 s to 6.2 s over five seeds for the same sizes, so no end-to-end
// metric could hold it within a bound. layers() times it on its own.
var engineArms = []engineArm{
	{name: "plain_datanet", jobs: 6, config: func(e *engineInst, c *mapreduce.Config) {}},
	{name: "plain_locality", jobs: 6, config: func(e *engineInst, c *mapreduce.Config) {
		c.Picker, c.Weights = sched.NewLocalityPicker, nil
	}},
	{name: "spec_hb", jobs: 1, config: func(e *engineInst, c *mapreduce.Config) {
		c.Faults = &datanet.FaultPlan{Seed: e.seed, Slow: e.slow}
		c.Detect = e.heartbeat
		c.Mitigate = &datanet.MitigationConfig{Mode: datanet.MitigateSpeculative, Quantile: 0.75}
	}},
	{name: "coded", jobs: 1, config: func(e *engineInst, c *mapreduce.Config) {
		c.Faults = &datanet.FaultPlan{Seed: e.seed, Slow: e.slow}
		c.Mitigate = &datanet.MitigationConfig{Mode: datanet.MitigateCoded, Rate: 0.70}
	}},
	{name: "skew", jobs: 2, config: func(e *engineInst, c *mapreduce.Config) {
		c.Partition = &datanet.PartitionConfig{Mode: datanet.PartitionSkew}
		c.Reducers = 64
	}},
	{name: "crash_hb", jobs: 1, freshFS: true, config: func(e *engineInst, c *mapreduce.Config) {
		c.Faults = &datanet.FaultPlan{Seed: e.seed, Crashes: []datanet.Crash{
			{Node: 1, At: e.filterEnd * 0.4, RejoinAt: e.filterEnd * 1.2},
		}}
		c.Detect = e.heartbeat
	}},
}

// engineJob is one entry of the expanded job list.
type engineJob struct {
	arm    *engineArm
	target string
}

func (j engineJob) key() string { return j.arm.name + "/" + j.target }

// engineInst runs the simulator alone (no app execution) on FS-E.
type engineInst struct {
	seed int64
	sz   sizes
	recs []records.Record
	fs   *hdfs.FileSystem
	meta *datanet.Meta
	jobs []engineJob
	// fresh holds one newly written filesystem per freshFS job of the
	// coming pass, in job order.
	fresh []*hdfs.FileSystem

	// Fault-plan ingredients, sized from a healthy run as the straggler
	// sweep does: ~2% of nodes badly slowed, heartbeats every 2% of the
	// healthy filter makespan.
	filterEnd float64
	slow      []datanet.Slowdown
	heartbeat datanet.DetectorConfig
}

func (e *engineInst) writeFS() (*hdfs.FileSystem, error) {
	return writeFS(e.recs, e.sz.ENodes, e.sz.ERacks, e.sz.EBlock, e.seed)
}

func setupEngine(seed int64, sz sizes) (instance, error) {
	e := &engineInst{seed: seed, sz: sz, recs: genD1(seed, sz)}
	var err error
	if e.fs, err = e.writeFS(); err != nil {
		return nil, err
	}
	if e.meta, err = datanet.BuildMeta(e.fs, fileName, datanet.MetaOptions{Alpha: metaAlpha}); err != nil {
		return nil, fmt.Errorf("building meta over FS-E: %w", err)
	}
	for i := range engineArms {
		arm := &engineArms[i]
		for j := 0; j < arm.jobs*sz.EngineReps; j++ {
			e.jobs = append(e.jobs, engineJob{arm, gen.MovieID(j)})
		}
	}
	healthy, err := mapreduce.Run(mapreduce.Config{
		FS: e.fs, File: fileName, TargetSub: gen.MovieID(0), App: apps.WordCount{}, Picker: sched.NewLocalityPicker,
	})
	if err != nil {
		return nil, fmt.Errorf("healthy sizing run: %w", err)
	}
	e.filterEnd = healthy.FilterEnd
	e.heartbeat = datanet.DetectorConfig{Mode: datanet.DetectHeartbeat, Interval: healthy.FilterEnd * 0.02}
	nSlow := max(sz.ENodes/64, 2)
	for i := 0; i < nSlow; i++ {
		factor := 0.05
		if i%2 == 1 {
			factor = 0.15
		}
		e.slow = append(e.slow, datanet.Slowdown{
			Node: datanet.NodeID((3 + i*(sz.ENodes/nSlow)) % sz.ENodes), CPU: factor, Disk: factor,
		})
	}
	return e, nil
}

// config builds the engine configuration of one job over fs. Blocks the
// meta-data proves empty are not skipped: how many blocks hold a movie
// depends on its release date, which the seed draws, and every job should
// schedule the same ~4 080 tasks whatever the seed.
func (e *engineInst) config(j engineJob, fs *hdfs.FileSystem) mapreduce.Config {
	c := mapreduce.Config{
		FS: fs, File: fileName, TargetSub: j.target, App: apps.WordCount{},
		Picker: sched.NewDataNetPicker, Weights: e.meta.Weights(j.target),
	}
	j.arm.config(e, &c)
	return c
}

func (e *engineInst) prepare() error {
	e.fresh = e.fresh[:0]
	for _, j := range e.jobs {
		if j.arm.freshFS {
			fs, err := e.writeFS()
			if err != nil {
				return err
			}
			e.fresh = append(e.fresh, fs)
		}
	}
	return nil
}

func (e *engineInst) close() {}

func (e *engineInst) pass(tr *tracer) (*passResult, error) {
	p := &passResult{counts: map[string]int64{}}
	fresh := e.fresh
	for _, j := range e.jobs {
		fs := e.fs
		if j.arm.freshFS {
			fs, fresh = fresh[0], fresh[1:]
		}
		cfg := e.config(j, fs)
		if tr != nil {
			// One recorded entry per event the kernel delivers: the exact
			// event count, at the price of recording it.
			cfg.KernelTrace = datanet.NewTrace()
		}
		res := runJob(p, tr, j.key(), func() (*mapreduce.Result, error) { return mapreduce.Run(cfg) })
		if res == nil {
			continue
		}
		p.counts["kernel_events"] += int64(cfg.KernelTrace.Len())
		p.counts["tasks"] += int64(len(res.Tasks))
		p.counts["spec_launches"] += int64(res.SpeculativeLaunches)
		p.counts["coded_decodes"] += int64(res.CodedDecodes)
	}
	return p, nil
}

// runJob runs one simulated job as an op of pass p: its wall, its span (the
// count is its task count), its simulated statistics, and a failed op if
// it errors, in which case it returns nil.
func runJob(p *passResult, tr *tracer, key string, run func() (*mapreduce.Result, error)) *mapreduce.Result {
	id := tr.begin("job:"+key, "mapreduce")
	start := time.Now()
	res, err := run()
	p.opMs = append(p.opMs, float64(time.Since(start).Nanoseconds())/1e6)
	p.attempted++
	if err != nil {
		tr.end(id, 0)
		p.fail("job %s: %v", key, err)
		p.sim = append(p.sim, simStat{Key: key})
		return nil
	}
	tr.end(id, int64(len(res.Tasks)))
	p.sim = append(p.sim, simStat{Key: key, JobTime: res.JobTime, FilterEnd: res.FilterEnd, Tasks: len(res.Tasks)})
	return res
}

// drain pulls every task out of a fresh picker, nodes asking round-robin as
// free slots would, and returns the seconds the pulls took.
func drain(factory sched.Factory, tasks []sched.Task, fs *hdfs.FileSystem) float64 {
	return timeMedian(3, func() {
		topo := fs.Topology()
		p := factory(append([]sched.Task(nil), tasks...), topo)
		for n := 0; p.Remaining() > 0; n = (n + 1) % topo.N() {
			p.Next(datanet.NodeID(n))
		}
	})
}

func (e *engineInst) layers(lc *layerCtx) error {
	traced := lc.passes[len(lc.passes)-1]
	for i := range engineArms {
		arm := &engineArms[i]
		var walls []float64
		for _, p := range lc.passes {
			for k, j := range e.jobs {
				if j.arm == arm {
					walls = append(walls, p.opMs[k])
				}
			}
		}
		lc.setSamples("mapreduce."+arm.name+"_ms", walls)
	}
	flow := e.config(engineJob{&engineArms[0], gen.MovieID(0)}, e.fs)
	flow.Picker = sched.NewFlowPicker
	var flowErr error
	lc.set("mapreduce.maxflow_ms", 1e3*timeMedian(1, func() { _, flowErr = mapreduce.Run(flow) }))
	if flowErr != nil {
		return fmt.Errorf("max-flow job: %w", flowErr)
	}
	for _, c := range []string{"kernel_events", "tasks", "spec_launches", "coded_decodes"} {
		lc.set("mapreduce."+c, float64(traced.counts[c]))
	}
	var jobsMs float64
	for _, ms := range traced.opMs {
		jobsMs += ms
	}
	lc.set("mapreduce.us_per_event", jobsMs*1e3/float64(traced.counts["kernel_events"]))
	lc.set("mapreduce.alloc_mb_per_job", lc.e2e["alloc_mb_per_pass"].Value/float64(len(e.jobs)))

	// Scheduler picks and max-flow assignment over FS-E's tasks for the
	// head sub-dataset, each through its public constructor alone.
	blocks, err := e.fs.Blocks(fileName)
	if err != nil {
		return err
	}
	weights := e.meta.Weights(gen.MovieID(0))
	tasks := make([]sched.Task, len(blocks))
	locations := make([][]int, len(blocks))
	for i, b := range blocks {
		tasks[i] = sched.Task{Block: b.ID, Index: i, Weight: weights[i], Bytes: b.Bytes, Locations: e.fs.Locations(b.ID)}
		for _, n := range b.Replicas {
			locations[i] = append(locations[i], int(n))
		}
	}
	n := float64(len(tasks))
	lc.set("sched.datanet_picks_per_s", n/drain(sched.NewDataNetPicker, tasks, e.fs))
	lc.set("sched.locality_picks_per_s", n/drain(sched.NewLocalityPicker, tasks, e.fs))
	lc.set("sched.lpt_picks_per_s", n/drain(sched.NewLPTPicker, tasks, e.fs))
	lc.set("graph.maxflow_ms", 1e3*timeMedian(1, func() {
		graph.BalancedAssignment(graph.NewBipartite(e.sz.ENodes, weights, locations))
	}))

	// The kernel alone: one self-renewing chain of no-op events per node,
	// so the queue stays as deep as a job on this cluster keeps it.
	lc.set("sim.events_per_s", float64(e.sz.SimEvents)/timeMedian(1, func() {
		k := sim.New(nil)
		left := e.sz.SimEvents - e.sz.ENodes
		k.Handle(1, func(ev *sim.Event) error {
			if left > 0 {
				left--
				k.Post(sim.Event{At: ev.At + 1, Kind: 1, K1: ev.K1})
			}
			return nil
		})
		for i := 0; i < e.sz.ENodes; i++ {
			k.Post(sim.Event{At: float64(i) / float64(e.sz.ENodes), Kind: 1, K1: int64(i)})
		}
		if err := k.Run(); err != nil {
			panic(err) // the no-op handler returns nil
		}
	}))

	// Reduce-partition planning over the key frequencies WordCount's Map
	// emits for the head sub-dataset (bytes per key, as the engine
	// harvests them).
	freqs := map[string]int64{}
	for _, r := range records.Filter(e.recs, gen.MovieID(0)) {
		apps.WordCount{}.Map(r, func(k, v string) { freqs[k] += int64(len(k) + len(v)) })
	}
	for _, mode := range []partition.Mode{partition.ModeSkew, partition.ModeRange} {
		var planErr error
		s := timeMedian(5, func() {
			planErr = partition.New(&partition.Config{Mode: mode, Seed: e.seed}).Plan(freqs, 64)
		})
		if planErr != nil {
			return fmt.Errorf("partition %s plan: %w", mode, planErr)
		}
		lc.set("partition."+string(mode)+"_plan_ms", s*1e3)
	}
	return nil
}
