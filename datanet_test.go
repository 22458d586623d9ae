package datanet_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"datanet"
	"datanet/internal/detect"
	"datanet/internal/gen"
)

// buildFixture creates a small cluster + dataset + meta through the public
// API only.
func buildFixture(t *testing.T) (*datanet.FileSystem, *datanet.Meta, string) {
	t.Helper()
	topo := datanet.NewCluster(8, 2)
	fs, err := datanet.NewFileSystem(topo, datanet.FSConfig{BlockSize: 64 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Movies(gen.MovieConfig{Movies: 200, Reviews: 8000, Seed: 4})
	if _, err := fs.Write("reviews.log", recs); err != nil {
		t.Fatal(err)
	}
	meta, err := datanet.BuildMeta(fs, "reviews.log", datanet.MetaOptions{Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return fs, meta, gen.MovieID(0)
}

func TestEndToEndJob(t *testing.T) {
	fs, meta, target := buildFixture(t)

	baseline := datanet.Job{
		FS: fs, File: "reviews.log", Target: target,
		App: datanet.WordCount(), Scheduler: datanet.SchedulerLocality,
	}
	br, err := baseline.Run()
	if err != nil {
		t.Fatal(err)
	}
	withDN := baseline
	withDN.Scheduler = datanet.SchedulerDataNet
	withDN.Meta = meta
	dr, err := withDN.Run()
	if err != nil {
		t.Fatal(err)
	}
	// At this miniature scale the timing model is overhead-bound, so assert
	// the scheduling invariant itself: DataNet distributes the filtered
	// sub-dataset more evenly than locality scheduling.
	spread := func(m map[datanet.NodeID]int64) float64 {
		var max, total int64
		for _, v := range m {
			total += v
			if v > max {
				max = v
			}
		}
		if total == 0 {
			return 0
		}
		return float64(max) * float64(len(m)) / float64(total)
	}
	if dr.AnalysisTime > br.AnalysisTime*1.05 {
		t.Errorf("DataNet analysis %.2fs noticeably slower than baseline %.2fs", dr.AnalysisTime, br.AnalysisTime)
	}
	if spread(dr.NodeWorkload) >= spread(br.NodeWorkload) {
		t.Errorf("DataNet workload spread %.2f not better than baseline %.2f",
			spread(dr.NodeWorkload), spread(br.NodeWorkload))
	}
	if br.SchedulerName != "hadoop-locality" || dr.SchedulerName != "datanet" {
		t.Errorf("scheduler names: %q, %q", br.SchedulerName, dr.SchedulerName)
	}
}

func TestJobExecuteOutputsMatchAcrossSchedulers(t *testing.T) {
	fs, meta, target := buildFixture(t)
	run := func(s datanet.Scheduler, m *datanet.Meta) map[string]string {
		r, err := datanet.Job{
			FS: fs, File: "reviews.log", Target: target,
			App: datanet.WordCount(), Scheduler: s, Meta: m, Execute: true,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.Output
	}
	a := run(datanet.SchedulerLocality, nil)
	b := run(datanet.SchedulerDataNet, meta)
	if len(a) == 0 {
		t.Fatal("no output")
	}
	if len(a) != len(b) {
		t.Fatalf("output sizes differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("output[%q] differs: %q vs %q — scheduling must not change results", k, v, b[k])
		}
	}
}

func TestMetaEstimateAndWeights(t *testing.T) {
	fs, meta, target := buildFixture(t)
	est := meta.Estimate(target)
	if est <= 0 {
		t.Fatalf("Estimate = %d", est)
	}
	// Ground truth via the filesystem.
	truth, err := fs.SubDistribution("reviews.log", target)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, b := range truth {
		want += b
	}
	rel := float64(est-want) / float64(want)
	if rel < -0.25 || rel > 0.25 {
		t.Errorf("estimate %d vs truth %d (%.1f%% off)", est, want, rel*100)
	}
	weights := meta.Weights(target)
	if len(weights) != len(truth) {
		t.Fatalf("weights length %d, blocks %d", len(weights), len(truth))
	}
	if meta.MemoryBytes() <= 0 {
		t.Error("meta-data should have positive footprint")
	}
}

func TestMetaEncodeDecode(t *testing.T) {
	_, meta, target := buildFixture(t)
	data, err := meta.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := datanet.DecodeMeta(data, "reviews.log")
	if err != nil {
		t.Fatal(err)
	}
	if back.Estimate(target) != meta.Estimate(target) {
		t.Error("estimate changed across encode/decode")
	}
	if _, err := datanet.DecodeMeta([]byte("junk"), "x"); err == nil {
		t.Error("junk must not decode")
	}
}

func TestSchedulerNames(t *testing.T) {
	cases := map[datanet.Scheduler]string{
		datanet.SchedulerLocality:      "locality",
		datanet.SchedulerDataNet:       "datanet",
		datanet.SchedulerCapacityAware: "datanet-capacity",
		datanet.SchedulerMaxFlow:       "maxflow",
		datanet.SchedulerLPT:           "lpt",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestAllSchedulersRun(t *testing.T) {
	fs, meta, target := buildFixture(t)
	for _, s := range []datanet.Scheduler{
		datanet.SchedulerLocality, datanet.SchedulerDataNet,
		datanet.SchedulerCapacityAware, datanet.SchedulerMaxFlow, datanet.SchedulerLPT,
	} {
		r, err := datanet.Job{
			FS: fs, File: "reviews.log", Target: target,
			App: datanet.TopKSearch(5, "plot twist"), Scheduler: s, Meta: meta,
		}.Run()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if r.JobTime <= 0 {
			t.Errorf("%v: JobTime = %g", s, r.JobTime)
		}
	}
}

func TestSkipEmptySavesIO(t *testing.T) {
	fs, meta, target := buildFixture(t)
	r, err := datanet.Job{
		FS: fs, File: "reviews.log", Target: target,
		App: datanet.WordHistogram(), Scheduler: datanet.SchedulerDataNet,
		Meta: meta, SkipEmpty: true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.SkippedBlocks == 0 {
		t.Error("expected some blocks skipped (the §V-B I/O saving)")
	}
}

func TestBuiltInApps(t *testing.T) {
	for _, app := range []datanet.App{
		datanet.WordCount(), datanet.WordHistogram(),
		datanet.MovingAverage(3600), datanet.TopKSearch(3, "q"),
	} {
		if app.Name() == "" || app.CostFactor() <= 0 {
			t.Errorf("app %T malformed", app)
		}
	}
}

// Example-style smoke of the documented quickstart flow.
func TestQuickstartFlow(t *testing.T) {
	topo := datanet.NewCluster(4, 2)
	fs, err := datanet.NewFileSystem(topo, datanet.FSConfig{BlockSize: 32 << 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var recs []datanet.Record
	for i := 0; i < 500; i++ {
		recs = append(recs, datanet.Record{
			Sub:     fmt.Sprintf("user-%d", i%5),
			Time:    int64(i),
			Payload: strings.Repeat("log line ", 10),
		})
	}
	if _, err := fs.Write("logs", recs); err != nil {
		t.Fatal(err)
	}
	meta, err := datanet.BuildMeta(fs, "logs", datanet.MetaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := datanet.Job{
		FS: fs, File: "logs", Target: "user-3",
		App: datanet.WordCount(), Scheduler: datanet.SchedulerDataNet,
		Meta: meta, Execute: true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Output["log"] != "1000" { // 100 records × 10 "log" tokens
		t.Errorf("word count = %q, want 1000", res.Output["log"])
	}
}

// TestJobWithFaults drives the public fault surface: a crash plan must
// leave the answer identical to the fault-free run, and a metadata load
// error must degrade the scheduler rather than fail the job.
func TestJobWithFaults(t *testing.T) {
	fs, meta, target := buildFixture(t)
	job := datanet.Job{
		FS: fs, File: "reviews.log", Target: target,
		App: datanet.WordCount(), Scheduler: datanet.SchedulerDataNet,
		Meta: meta, Execute: true,
	}
	clean, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}

	faulty := job
	faulty.Faults = &datanet.FaultPlan{
		Seed:    3,
		Crashes: []datanet.Crash{{Node: 2, At: clean.FilterEnd / 2}},
		Read:    datanet.ReadErrors{Prob: 0.02},
	}
	faulty.Retry = datanet.RetryPolicy{MaxAttempts: 8}
	fr, err := faulty.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fr.NodeCrashes != 1 {
		t.Errorf("NodeCrashes = %d, want 1", fr.NodeCrashes)
	}
	if len(fr.Output) != len(clean.Output) {
		t.Fatalf("output size diverged under faults: %d vs %d", len(fr.Output), len(clean.Output))
	}
	for k, v := range clean.Output {
		if fr.Output[k] != v {
			t.Fatalf("output[%q] diverged under faults: %q vs %q", k, fr.Output[k], v)
		}
	}

	degraded := job
	degraded.Meta = nil
	degraded.MetaErr = fmt.Errorf("meta file unreadable")
	dr, err := degraded.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !dr.MetadataFallback {
		t.Error("MetadataFallback not set")
	}
	if !strings.Contains(dr.SchedulerName, "fallback") {
		t.Errorf("scheduler %q does not record the fallback", dr.SchedulerName)
	}
	if dr.Output["movie"] != clean.Output["movie"] {
		t.Errorf("fallback output diverged: %q vs %q", dr.Output["movie"], clean.Output["movie"])
	}
}

// A Meta built over one file must not drive a job over another file of
// the same block count: with SkipEmpty its estimates would drop blocks
// that hold the target. The job degrades to the locality baseline instead,
// names both files, and computes the same output as a run without Meta.
func TestJobRejectsAnotherFilesMeta(t *testing.T) {
	fs, err := datanet.NewFileSystem(datanet.NewCluster(8, 2), datanet.FSConfig{BlockSize: 64 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string]int{}
	for i, name := range []string{"day1.log", "day2.log"} {
		info, err := fs.Write(name, gen.Movies(gen.MovieConfig{Movies: 200, Reviews: 8000, Seed: int64(4 + i)}))
		if err != nil {
			t.Fatal(err)
		}
		blocks[name] = len(info.Blocks)
	}
	if blocks["day1.log"] != blocks["day2.log"] {
		t.Fatalf("fixture files differ in block count: %v", blocks)
	}
	meta1, err := datanet.BuildMeta(fs, "day1.log", datanet.MetaOptions{Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		job := datanet.Job{
			FS: fs, File: "day2.log", Target: gen.MovieID(i),
			App: datanet.WordCount(), Scheduler: datanet.SchedulerDataNet,
			SkipEmpty: true, Execute: true,
		}
		plain, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		job.Meta = meta1
		got, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !got.MetadataFallback || !strings.Contains(got.SchedulerName, "day1.log") || !strings.Contains(got.SchedulerName, "day2.log") {
			t.Errorf("%s: scheduler %q, MetadataFallback %v: another file's meta was not refused", job.Target, got.SchedulerName, got.MetadataFallback)
		}
		if !reflect.DeepEqual(got.Output, plain.Output) {
			t.Errorf("%s: output under another file's meta differs from the run without meta", job.Target)
		}
	}
}

// A Scheduler value outside the table is refused with ErrUnknownScheduler.
// It used to run the locality baseline under the name "locality", so a
// job built without Set silently measured the wrong policy.
func TestJobRejectsUnknownScheduler(t *testing.T) {
	fs, meta, target := buildFixture(t)
	for _, s := range []datanet.Scheduler{99, -1, datanet.SchedulerLPT + 1} {
		_, err := datanet.Job{
			FS: fs, File: "reviews.log", Target: target,
			App: datanet.WordCount(), Scheduler: s, Meta: meta,
		}.Run()
		if !errors.Is(err, datanet.ErrUnknownScheduler) {
			t.Errorf("Scheduler(%d): Run() error %v, want ErrUnknownScheduler", int(s), err)
		}
	}
}

// A negative detector duration is refused with detect.ErrBadConfig, under
// the oracle too. It used to run as the default, so `-hb-interval -5` ran
// exactly what `-hb-interval 0.5` ran.
func TestJobRejectsNegativeDetectorDurations(t *testing.T) {
	fs, _, target := buildFixture(t)
	for _, d := range []datanet.DetectorConfig{
		{Interval: -1},
		{Timeout: -1},
		{Mode: datanet.DetectHeartbeat, Interval: -5},
		{Mode: datanet.DetectHeartbeat, Interval: 0.5, Timeout: -1},
	} {
		_, err := datanet.Job{
			FS: fs, File: "reviews.log", Target: target,
			App: datanet.WordCount(), Scheduler: datanet.SchedulerLocality, Detect: d,
		}.Run()
		if !errors.Is(err, detect.ErrBadConfig) {
			t.Errorf("Detect %+v: Run() error %v, want detect.ErrBadConfig", d, err)
		}
	}
}
