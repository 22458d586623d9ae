package main

import (
	"runtime"

	"datanet"
	"datanet/internal/apps"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/mapreduce"
	"datanet/internal/records"
)

// analysisApp pairs an application with the short name its per-layer
// metrics carry.
type analysisApp struct {
	short string
	app   datanet.App
}

// analysisApps are the five executed applications, in op order.
func analysisApps() []analysisApp {
	return []analysisApp{
		{"wordcount", datanet.WordCount()},
		{"wordhist", datanet.WordHistogram()},
		{"movavg", datanet.MovingAverage(24 * 3600)},
		{"topk", datanet.TopKSearch(10, "plot twist ending amazing director")},
		{"sort", datanet.DistributedSort()},
	}
}

// analyzeJob is one entry of the fixed job list.
type analyzeJob struct {
	app    analysisApp
	target string
	sched  datanet.Scheduler
}

func (j analyzeJob) key() string {
	return j.app.short + "/" + j.sched.String() + "/" + j.target
}

// analyzeInst runs executed paper-scale jobs on FS-A with M1.
type analyzeInst struct {
	fs   *hdfs.FileSystem
	meta *datanet.Meta
	recs []records.Record
	jobs []analyzeJob
}

func setupAnalyze(seed int64, sz sizes) (instance, error) {
	recs, fs, meta, err := buildM1(seed, sz)
	if err != nil {
		return nil, err
	}
	a := &analyzeInst{fs: fs, meta: meta, recs: recs}
	// The head sub-dataset under both schedulers (their outputs must be
	// equal), then a mid-sized one under DataNet.
	for _, app := range analysisApps() {
		a.jobs = append(a.jobs,
			analyzeJob{app, gen.MovieID(0), datanet.SchedulerDataNet},
			analyzeJob{app, gen.MovieID(0), datanet.SchedulerLocality})
	}
	for _, app := range analysisApps() {
		a.jobs = append(a.jobs, analyzeJob{app, gen.MovieID(5), datanet.SchedulerDataNet})
	}
	return a, nil
}

func (a *analyzeInst) prepare() error { return nil }
func (a *analyzeInst) close()         {}

func (a *analyzeInst) run(j analyzeJob) (*mapreduce.Result, error) {
	return datanet.Job{
		FS: a.fs, File: fileName, Target: j.target, App: j.app.app,
		Scheduler: j.sched, Meta: a.meta, SkipEmpty: true, Execute: true,
	}.Run()
}

func (a *analyzeInst) pass(tr *tracer) (*passResult, error) {
	p := &passResult{}
	outputs := make([]map[string]string, len(a.jobs))
	for i, j := range a.jobs {
		if res := runJob(p, tr, j.key(), func() (*mapreduce.Result, error) { return a.run(j) }); res != nil {
			outputs[i] = res.Output
		}
	}
	// Schedule independence (the paper's output-equality claim): the same
	// app on the same target must reduce to the same output whichever
	// scheduler placed the tasks. Checked after the clock stops.
	p.verify = func() {
		for i, j := range a.jobs {
			if j.sched != datanet.SchedulerLocality || outputs[i] == nil || outputs[i-1] == nil {
				continue
			}
			if !sameOutput(outputs[i-1], outputs[i]) {
				p.fail("%s: output under locality differs from output under DataNet", j.app.short)
			}
		}
	}
	return p, nil
}

func sameOutput(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// directMapReduce runs app over recs the way a job must at minimum — Map
// every record, group by key, Reduce every key — and returns the seconds
// spent in Map (with a discarding emit) and in grouped Map plus Reduce.
func directMapReduce(app apps.App, recs []records.Record) (mapOnly, mapReduce float64) {
	mapOnly = timeMedian(3, func() {
		n := 0
		for _, r := range recs {
			app.Map(r, func(string, string) { n++ })
		}
	})
	mapReduce = timeMedian(3, func() {
		groups := map[string][]string{}
		for _, r := range recs {
			app.Map(r, func(k, v string) { groups[k] = append(groups[k], v) })
		}
		for k, vs := range groups {
			app.Reduce(k, vs)
		}
	})
	return mapOnly, mapReduce
}

func (a *analyzeInst) layers(lc *layerCtx) error {
	target := records.Filter(a.recs, gen.MovieID(0))
	targetMB := mb(records.TotalSize(target))
	var jobS, directS float64
	var allocs []float64
	for i, j := range a.jobs {
		if j.target != gen.MovieID(0) || j.sched != datanet.SchedulerDataNet {
			continue
		}
		var walls []float64
		for _, p := range lc.passes {
			walls = append(walls, p.opMs[i])
		}
		lc.setSamples("apps."+j.app.short+"_job_ms", walls)
		mapOnly, mapReduce := directMapReduce(j.app.app, target)
		lc.set("apps."+j.app.short+"_map_mb_per_s", targetMB/mapOnly)
		jobS += median(walls) / 1e3
		directS += mapReduce

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := a.run(j); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		allocs = append(allocs, mb(int64(after.TotalAlloc-before.TotalAlloc)))
	}
	lc.setSamples("apps.alloc_mb_per_job", allocs)
	// What an executed job costs beyond running its Map and Reduce
	// functions: the simulator, the shuffle bookkeeping and the GC they add.
	lc.set("mapreduce.exec_overhead_share", 1-directS/jobS)
	return nil
}
