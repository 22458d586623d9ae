package mapreduce

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/faults"
	"datanet/internal/hdfs"
	"datanet/internal/records"
	"datanet/internal/sched"
)

// The golden files pin the engine's exact output — every float bit, every
// trace line — where the reference model (model_test.go) does not reach:
// the engine modes it does not run, and the timelines of five cells of the
// scheduler × fault-plan matrix in agreement_test.go, whose results the
// model checks. They must never change without an explicit -update
// accompanied by a justification.
var updateGolden = flag.Bool("update", false, "rewrite golden files from the current engine")

// goldenEnv builds a deterministic 12-node, 2-rack filesystem; crashes
// mutate the replica layout, so every run gets a fresh identical instance.
func goldenEnv(t testing.TB) *hdfs.FileSystem {
	t.Helper()
	topo := cluster.MustHomogeneous(12, 2)
	fs, err := hdfs.NewFileSystem(topo, hdfs.Config{BlockSize: 2048, Replication: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var recs []records.Record
	for i := 0; i < 400; i++ {
		sub := fmt.Sprintf("bg-%d", i%9)
		if i%4 == 0 {
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
	return fs
}

type goldenSched struct {
	Name    string
	Factory sched.Factory
	Weights bool // pass oracle weights to the picker
}

func goldenSchedulers() []goldenSched {
	return []goldenSched{
		{"locality", sched.NewLocalityPicker, false},
		{"delay2", sched.NewDelayedLocalityPicker(2), false},
		{"datanet", sched.NewDataNetPicker, true},
		{"capacity", sched.NewCapacityAwarePicker, true},
		{"lpt", sched.NewLPTPicker, true},
		{"maxflow", sched.NewFlowPicker, true},
	}
}

// goldenPlan builds a fault plan given the scheduler's healthy filter
// makespan, so crash instants land at known phase fractions.
type goldenPlan struct {
	Name string
	Plan func(filterEnd float64) *faults.Plan
}

func goldenPlans() []goldenPlan {
	return []goldenPlan{
		{"healthy", func(float64) *faults.Plan { return nil }},
		{"crash2", func(fe float64) *faults.Plan {
			return &faults.Plan{Crashes: []faults.Crash{
				{Node: 3, At: 0.3 * fe},
				{Node: 9, At: 0.6 * fe},
			}}
		}},
		{"rejoin", func(fe float64) *faults.Plan {
			return &faults.Plan{Crashes: []faults.Crash{
				{Node: 3, At: 0.3 * fe, RejoinAt: 0.8 * fe},
			}}
		}},
		{"simultaneous", func(fe float64) *faults.Plan {
			return &faults.Plan{Crashes: []faults.Crash{
				{Node: 2, At: 0.4 * fe},
				{Node: 5, At: 0.4 * fe},
			}}
		}},
		{"slow", func(float64) *faults.Plan {
			return &faults.Plan{Slow: []faults.Slowdown{
				{Node: 1, CPU: 0.5},
				{Node: 4, Disk: 0.4, Net: 0.6},
			}}
		}},
		{"readerr", func(float64) *faults.Plan {
			return &faults.Plan{Seed: 11, Read: faults.ReadErrors{Prob: 0.15}}
		}},
		{"combo", func(fe float64) *faults.Plan {
			return &faults.Plan{
				Seed:    5,
				Crashes: []faults.Crash{{Node: 7, At: 0.5 * fe}},
				Slow:    []faults.Slowdown{{Node: 1, CPU: 0.6}},
				Read:    faults.ReadErrors{Prob: 0.1},
			}
		}},
		{"late-crash", func(fe float64) *faults.Plan {
			return &faults.Plan{Crashes: []faults.Crash{
				{Node: 2, At: 1.5 * fe},
			}}
		}},
	}
}

func goldenConfig(t *testing.T, gs goldenSched) Config {
	t.Helper()
	fs := goldenEnv(t)
	cfg := Config{
		FS:        fs,
		File:      "log",
		TargetSub: "movie-A",
		App:       apps.WordCount{},
		Picker:    gs.Factory,
	}
	if gs.Weights {
		cfg.Weights = oracleWeights(t, fs, "movie-A")
	}
	return cfg
}

// TestGoldenEngineModes pins the comparator and execution modes the paper
// evaluates (reactive rebalance, speculation, output-aware reducers,
// ElasticMap block skipping, real execution, metadata fallback).
func TestGoldenEngineModes(t *testing.T) {
	ds := goldenSchedulers()[2] // datanet
	probe, err := Run(goldenConfig(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	fe := probe.FilterEnd
	slowPlan := &faults.Plan{Slow: []faults.Slowdown{{Node: 1, CPU: 0.3}, {Node: 6, CPU: 0.4}}}
	modes := []struct {
		name string
		mut  func(cfg *Config)
	}{
		{"rebalance", func(cfg *Config) {
			cfg.Picker = sched.NewLocalityPicker
			cfg.Weights = nil
			cfg.RebalanceAfterFilter = true
		}},
		{"speculative-slow", func(cfg *Config) {
			cfg.Speculative = true
			cfg.Faults = slowPlan
		}},
		{"outputaware", func(cfg *Config) {
			cfg.OutputAwareReducers = true
			cfg.Reducers = 4
		}},
		{"skipempty", func(cfg *Config) {
			cfg.SkipEmpty = true
		}},
		{"executeapp", func(cfg *Config) {
			cfg.ExecuteApp = true
		}},
		{"wholedataset", func(cfg *Config) {
			cfg.TargetSub = ""
			cfg.Weights = nil
		}},
		{"metafallback", func(cfg *Config) {
			cfg.WeightsErr = fmt.Errorf("golden: synthetic metadata corruption")
		}},
		{"crash-rejoin-readerr", func(cfg *Config) {
			cfg.Faults = &faults.Plan{
				Seed:    3,
				Crashes: []faults.Crash{{Node: 4, At: 0.4 * fe, RejoinAt: 1.2 * fe}},
				Read:    faults.ReadErrors{Prob: 0.08},
			}
			cfg.Retry = faults.RetryPolicy{MaxAttempts: 6, Backoff: 0.25}
		}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cfg := goldenConfig(t, ds)
			m.mut(&cfg)
			if m.name == "crash-rejoin-readerr" {
				// An oracle-mode job without mitigation: the model runs it.
				if diff, err := ModelDiff(cfg); diff != "" || err != nil {
					t.Errorf("run: %v; engine and model disagree: %s", err, diff)
				}
				return
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			checkGolden(t, "mode_"+m.name+".golden", []byte(dumpResult(res)))
		})
	}
}

func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from pre-refactor golden (%d vs %d bytes)\nfirst diff near: %s",
			file, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 60
			if lo < 0 {
				lo = 0
			}
			hi := i + 60
			if hi > n {
				hi = n
			}
			return fmt.Sprintf("byte %d: got %q want %q", i, a[lo:hi], b[lo:hi])
		}
	}
	return fmt.Sprintf("length mismatch at byte %d", n)
}

// dumpResult renders a Result exactly (floats round-trip via strconv -1
// precision), with all maps in sorted order, so byte equality means bit
// equality of every field.
func dumpResult(res *Result) string {
	var sb strings.Builder
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(&sb, "scheduler=%s\n", res.SchedulerName)
	fmt.Fprintf(&sb, "filterEnd=%s mapEnd=%s firstMapEnd=%s shuffleEnd=%s reduceEnd=%s jobTime=%s analysisTime=%s\n",
		f(res.FilterEnd), f(res.MapEnd), f(res.FirstMapEnd), f(res.ShuffleEnd), f(res.ReduceEnd), f(res.JobTime), f(res.AnalysisTime))
	fmt.Fprintf(&sb, "local=%d remote=%d skipped=%d shuffleBytes=%d\n",
		res.LocalTasks, res.RemoteTasks, res.SkippedBlocks, res.ShuffleBytes)
	fmt.Fprintf(&sb, "migratedBytes=%d migrationTime=%s speculativeWins=%d\n",
		res.MigratedBytes, f(res.MigrationTime), res.SpeculativeWins)
	fmt.Fprintf(&sb, "crashes=%d retried=%d transient=%d lostOutputs=%d repaired=%d fallback=%v\n",
		res.NodeCrashes, res.TasksRetried, res.TransientErrors, res.LostOutputs, res.ReplicasRepaired, res.MetadataFallback)
	ids := make([]int, 0, len(res.NodeBusy))
	seen := map[int]bool{}
	for id := range res.NodeBusy {
		if !seen[int(id)] {
			seen[int(id)] = true
			ids = append(ids, int(id))
		}
	}
	for id := range res.NodeCompute {
		if !seen[int(id)] {
			seen[int(id)] = true
			ids = append(ids, int(id))
		}
	}
	for id := range res.NodeWorkload {
		if !seen[int(id)] {
			seen[int(id)] = true
			ids = append(ids, int(id))
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		nid := cluster.NodeID(id)
		fmt.Fprintf(&sb, "node %d busy=%s compute=%s workload=%d\n",
			id, f(res.NodeBusy[nid]), f(res.NodeCompute[nid]), res.NodeWorkload[nid])
	}
	fmt.Fprintf(&sb, "shuffleDurations=[")
	for i, d := range res.ShuffleDurations {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(f(d))
	}
	fmt.Fprintf(&sb, "]\n")
	for _, ts := range res.Tasks {
		fmt.Fprintf(&sb, "task block=%d idx=%d node=%d start=%s end=%s scan=%s compute=%s matched=%d local=%v attempt=%d lost=%v\n",
			ts.Task.Block, ts.Task.Index, ts.Node, f(ts.Start), f(ts.End), f(ts.Scan), f(ts.Compute),
			ts.Matched, ts.Local, ts.Attempt, ts.Lost)
	}
	if res.Output != nil {
		keys := make([]string, 0, len(res.Output))
		for k := range res.Output {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "out %s=%s\n", k, res.Output[k])
		}
	}
	return sb.String()
}
