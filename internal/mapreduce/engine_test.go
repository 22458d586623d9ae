package mapreduce

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/faults"
	"datanet/internal/hdfs"
	"datanet/internal/records"
	"datanet/internal/sched"
)

// testEnv builds a small filesystem: movie-A clustered in the first blocks,
// background data everywhere.
func testEnv(t *testing.T) (*hdfs.FileSystem, []records.Record) {
	t.Helper()
	topo := cluster.MustHomogeneous(4, 2)
	fs, err := hdfs.NewFileSystem(topo, hdfs.Config{BlockSize: 2048, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var recs []records.Record
	for i := 0; i < 200; i++ {
		sub := fmt.Sprintf("bg-%d", i%9)
		if i < 60 {
			sub = "movie-A"
		}
		recs = append(recs, records.Record{
			Sub:     sub,
			Time:    int64(i),
			Rating:  3,
			Payload: strings.Repeat("w ", 20),
		})
	}
	if _, err := fs.Write("log", recs); err != nil {
		t.Fatal(err)
	}
	return fs, recs
}

func baseConfig(fs *hdfs.FileSystem) Config {
	return Config{
		FS:        fs,
		File:      "log",
		TargetSub: "movie-A",
		App:       apps.WordCount{},
		Picker:    sched.NewLocalityPicker,
	}
}

func TestRunValidation(t *testing.T) {
	fs, _ := testEnv(t)
	cfg := baseConfig(fs)
	cfg.App = nil
	if _, err := Run(cfg); !errors.Is(err, ErrNoApp) {
		t.Errorf("missing app err = %v", err)
	}
	cfg = baseConfig(fs)
	cfg.Picker = nil
	if _, err := Run(cfg); !errors.Is(err, ErrNoPicker) {
		t.Errorf("missing picker err = %v", err)
	}
	cfg = baseConfig(fs)
	cfg.File = "missing"
	if _, err := Run(cfg); err == nil {
		t.Error("missing file should error")
	}
}

func TestRunConservation(t *testing.T) {
	fs, recs := testEnv(t)
	res, err := Run(baseConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, w := range res.NodeWorkload {
		got += w
	}
	want := records.BySub(recs)["movie-A"]
	if got != want {
		t.Errorf("workload sum = %d, want %d", got, want)
	}
	blocks, _ := fs.Blocks("log")
	if res.LocalTasks+res.RemoteTasks != len(blocks) {
		t.Errorf("task count = %d, want %d", res.LocalTasks+res.RemoteTasks, len(blocks))
	}
	// Shuffle-byte conservation: the per-reducer attribution must sum
	// exactly to the total volume that crossed the network.
	var perReducer int64
	for _, b := range res.ShuffleBytesPerReducer {
		perReducer += b
	}
	if perReducer != res.ShuffleBytes {
		t.Errorf("ShuffleBytesPerReducer sums to %d, ShuffleBytes %d", perReducer, res.ShuffleBytes)
	}
}

func TestRunPhaseOrdering(t *testing.T) {
	fs, _ := testEnv(t)
	res, err := Run(baseConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.FilterEnd > 0 &&
		res.FirstMapEnd >= res.FilterEnd &&
		res.MapEnd >= res.FirstMapEnd &&
		res.ShuffleEnd >= res.MapEnd &&
		res.ReduceEnd >= res.ShuffleEnd &&
		res.JobTime == res.ReduceEnd) {
		t.Errorf("phase ordering violated: %+v", res)
	}
	if res.AnalysisTime != res.JobTime-res.FilterEnd {
		t.Errorf("AnalysisTime = %g, want %g", res.AnalysisTime, res.JobTime-res.FilterEnd)
	}
	for i := 1; i < len(res.Tasks); i++ {
		if res.Tasks[i].End < res.Tasks[i-1].End {
			t.Fatal("tasks not sorted by completion")
		}
	}
	for _, ts := range res.Tasks {
		if ts.End <= ts.Start || ts.Scan <= 0 {
			t.Errorf("degenerate task stat %+v", ts)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	fs, _ := testEnv(t)
	a, err := Run(baseConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	if a.JobTime != b.JobTime || !reflect.DeepEqual(a.NodeWorkload, b.NodeWorkload) {
		t.Error("engine is not deterministic")
	}
}

func TestRunWholeDataset(t *testing.T) {
	fs, recs := testEnv(t)
	cfg := baseConfig(fs)
	cfg.TargetSub = "" // no filter: everything matches
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, w := range res.NodeWorkload {
		got += w
	}
	if want := records.TotalSize(recs); got != want {
		t.Errorf("whole-dataset workload = %d, want %d", got, want)
	}
}

// TestTaskStatsPresized: Result.Tasks is sized to the task list up front,
// but only when there is a task — a job whose every block was skipped
// reports nil, exactly as when the stats grew by append from nil — and a
// job keeps one stat per commit, retried and lost ones included (the
// engine goldens pin their contents and order).
func TestTaskStatsPresized(t *testing.T) {
	fs, _ := testEnv(t)
	cfg := baseConfig(fs)
	cfg.TargetSub, cfg.SkipEmpty, cfg.ExecuteApp = "movie-absent", true, true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocks, _ := fs.Blocks("log")
	if res.SkippedBlocks != len(blocks) || res.Tasks != nil {
		t.Errorf("task-less job: %d of %d blocks skipped, Tasks = %#v, want nil", res.SkippedBlocks, len(blocks), res.Tasks)
	}
	cfg = baseConfig(fs.Clone())
	cfg.Faults = &faults.Plan{Crashes: []faults.Crash{{Node: 1, At: 0.05}}}
	if res, err = Run(cfg); err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, ts := range res.Tasks {
		if ts.Lost {
			lost++
		}
	}
	if len(res.Tasks)-lost != len(blocks) {
		t.Errorf("%d task stats (%d lost), want one live stat per block (%d)", len(res.Tasks), lost, len(blocks))
	}
}

func TestRunSkipEmpty(t *testing.T) {
	fs, _ := testEnv(t)
	blocks, _ := fs.Blocks("log")
	// Oracle weights: zero for blocks without the target.
	weights := make([]int64, len(blocks))
	empty := 0
	for i, b := range blocks {
		for _, r := range b.Records {
			if r.Sub == "movie-A" {
				weights[i] += r.Size()
			}
		}
		if weights[i] == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("fixture needs empty blocks")
	}
	cfg := baseConfig(fs)
	cfg.Picker = sched.NewDataNetPicker
	cfg.Weights = weights
	cfg.SkipEmpty = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedBlocks != empty {
		t.Errorf("SkippedBlocks = %d, want %d", res.SkippedBlocks, empty)
	}
	if res.LocalTasks+res.RemoteTasks != len(blocks)-empty {
		t.Errorf("executed %d tasks, want %d", res.LocalTasks+res.RemoteTasks, len(blocks)-empty)
	}
	// Skipping must not lose any target data.
	var got int64
	for _, w := range res.NodeWorkload {
		got += w
	}
	var want int64
	for _, w := range weights {
		want += w
	}
	if got != want {
		t.Errorf("workload sum = %d, want %d", got, want)
	}
}

// The executed application output must equal a direct serial computation.
func TestRunExecuteAppCorrectness(t *testing.T) {
	fs, recs := testEnv(t)
	cfg := baseConfig(fs)
	cfg.ExecuteApp = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference.
	groups := make(map[string][]string)
	for _, r := range recs {
		if r.Sub != "movie-A" {
			continue
		}
		cfg.App.Map(r, func(k, v string) { groups[k] = append(groups[k], v) })
	}
	want := make(map[string]string, len(groups))
	for k, vs := range groups {
		want[k] = cfg.App.Reduce(k, vs)
	}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("engine output diverges from serial reference:\n got %d keys\nwant %d keys", len(res.Output), len(want))
	}
	if res.Output["w"] == "" {
		t.Error("expected word counts in output")
	}
}

func TestRunExecuteDisabledNoOutput(t *testing.T) {
	fs, _ := testEnv(t)
	res, err := Run(baseConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != nil {
		t.Error("output should be nil when ExecuteApp is false")
	}
}

func TestDataNetReducesStragglers(t *testing.T) {
	fs, _ := testEnv(t)
	blocks, _ := fs.Blocks("log")
	weights := make([]int64, len(blocks))
	for i, b := range blocks {
		for _, r := range b.Records {
			if r.Sub == "movie-A" {
				weights[i] += r.Size()
			}
		}
	}
	base, err := Run(baseConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(fs)
	cfg.App = apps.NewTopKSearch(5, "w")
	cfg.Picker = sched.NewDataNetPicker
	cfg.Weights = weights
	dn, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(m map[cluster.NodeID]int64) float64 {
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
	if spread(dn.NodeWorkload) > spread(base.NodeWorkload)+1e-9 {
		t.Errorf("DataNet spread %.2f worse than baseline %.2f",
			spread(dn.NodeWorkload), spread(base.NodeWorkload))
	}
}

func TestShuffleDurations(t *testing.T) {
	fs, _ := testEnv(t)
	cfg := baseConfig(fs)
	cfg.Reducers = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ShuffleDurations) != 3 {
		t.Fatalf("reducers = %d", len(res.ShuffleDurations))
	}
	for _, d := range res.ShuffleDurations {
		// Every shuffle window spans at least the map straggler tail.
		if d < res.MapEnd-res.FirstMapEnd-1e-9 {
			t.Errorf("shuffle %g shorter than map tail %g", d, res.MapEnd-res.FirstMapEnd)
		}
	}
	// The per-reducer byte histogram rides alongside the durations: same
	// length, non-negative entries, summing exactly to ShuffleBytes, and
	// a reduce workload per reducer.
	if len(res.ShuffleBytesPerReducer) != 3 || len(res.ReduceWorkloads) != 3 {
		t.Fatalf("per-reducer histograms = %d bytes / %d workloads, want 3 each",
			len(res.ShuffleBytesPerReducer), len(res.ReduceWorkloads))
	}
	var sum int64
	for _, b := range res.ShuffleBytesPerReducer {
		if b < 0 {
			t.Errorf("negative per-reducer shuffle bytes %d", b)
		}
		sum += b
	}
	if sum != res.ShuffleBytes {
		t.Errorf("per-reducer bytes sum %d, ShuffleBytes %d", sum, res.ShuffleBytes)
	}
}

// FilteredRecords extracts the target sub-dataset from a file (every record
// when sub is ""): the paper's first-stage "filter and store locally"
// result, the reference tests validate outputs against independently of
// the engine.
func FilteredRecords(fs *hdfs.FileSystem, file, sub string) ([]records.Record, error) {
	blocks, err := fs.Blocks(file)
	if err != nil {
		return nil, err
	}
	var out []records.Record
	for _, b := range blocks {
		for _, r := range b.Records {
			if sub == "" || r.Sub == sub {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

func TestFilteredRecords(t *testing.T) {
	fs, recs := testEnv(t)
	got, err := FilteredRecords(fs, "log", "movie-A")
	if err != nil {
		t.Fatal(err)
	}
	want := records.Filter(recs, "movie-A")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FilteredRecords: %d vs %d records", len(got), len(want))
	}
	all, err := FilteredRecords(fs, "log", "")
	if err != nil || len(all) != len(recs) {
		t.Errorf("unfiltered: %d records, err %v", len(all), err)
	}
	if _, err := FilteredRecords(fs, "nope", "x"); err == nil {
		t.Error("missing file should error")
	}
}
