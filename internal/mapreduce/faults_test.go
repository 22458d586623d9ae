package mapreduce

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/elasticmap"
	"datanet/internal/faults"
	"datanet/internal/hdfs"
	"datanet/internal/records"
	"datanet/internal/sched"
	"datanet/internal/straggle"
)

// faultEnv builds a 16-node, 2-rack cluster with enough blocks that every
// node owns work. The layout is a pure function of the seed, so repeated
// calls produce identical filesystems — required because crashes mutate
// the replica layout and comparison runs need fresh, identical instances.
func faultEnv(t *testing.T, nodes int) *hdfs.FileSystem {
	t.Helper()
	return faultLog(t, cluster.MustHomogeneous(nodes, 2), hdfs.Config{BlockSize: 2048, Replication: 3, Seed: 7})
}

// faultLog writes faultEnv's 800-record log over topo under cfg.
func faultLog(t *testing.T, topo *cluster.Topology, cfg hdfs.Config) *hdfs.FileSystem {
	t.Helper()
	fs, err := hdfs.NewFileSystem(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []records.Record
	for i := 0; i < 800; i++ {
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

func oracleWeights(t *testing.T, fs *hdfs.FileSystem, sub string) []int64 {
	t.Helper()
	blocks, err := fs.Blocks("log")
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]int64, len(blocks))
	for i, b := range blocks {
		for _, r := range b.Records {
			if r.Sub == sub {
				weights[i] += r.Size()
			}
		}
	}
	return weights
}

// midFilterTime runs the job fault-free on a fresh, identical filesystem
// and returns a fraction of its filter makespan — a crash instant that is
// guaranteed to land mid-filter.
func midFilterTime(t *testing.T, cfg Config, frac float64) float64 {
	t.Helper()
	probe := cfg
	probe.FS = faultEnv(t, cfg.FS.Topology().N())
	probe.Faults = nil
	res, err := Run(probe)
	if err != nil {
		t.Fatal(err)
	}
	return res.FilterEnd * frac
}

// Identical fault seed and config must produce byte-identical results —
// the determinism contract that makes failure experiments reproducible.
func TestFaultDeterminism(t *testing.T) {
	at := 0.0
	{
		fs := faultEnv(t, 8)
		cfg := Config{FS: fs, File: "log", TargetSub: "movie-A", App: apps.WordCount{}, Picker: sched.NewLocalityPicker}
		at = midFilterTime(t, cfg, 0.5)
	}
	plans := []struct {
		name string
		plan *faults.Plan
	}{
		{"crash", &faults.Plan{Seed: 3, Crashes: []faults.Crash{{Node: 2, At: at}, {Node: 5, At: at * 1.4, RejoinAt: at * 3}}}},
		{"slow-node", &faults.Plan{Seed: 3, Slow: []faults.Slowdown{{Node: 1, CPU: 0.5, Disk: 0.6}, {Node: 6, Net: 0.25}}}},
		{"transient-errors", &faults.Plan{Seed: 3, Read: faults.ReadErrors{Prob: 0.2}}},
		{"everything", &faults.Plan{
			Seed:    9,
			Crashes: []faults.Crash{{Node: 3, At: at}},
			Slow:    []faults.Slowdown{{Node: 0, CPU: 0.7}},
			Read:    faults.ReadErrors{Prob: 0.1},
		}},
	}
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			run := func() *Result {
				cfg := Config{
					FS: faultEnv(t, 8), File: "log", TargetSub: "movie-A",
					App: apps.WordCount{}, Picker: sched.NewLocalityPicker,
					ExecuteApp: true, Faults: p.plan,
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				return res
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("results diverge across identical runs:\n a: %+v\n b: %+v", a, b)
			}
		})
	}
}

// The ISSUE acceptance scenario: crash 2 of 16 nodes mid-filter. Every
// scheduler must complete, produce output identical to the fault-free run,
// and report the recovery work it did.
func TestCrashTwoOfSixteenAllSchedulers(t *testing.T) {
	const nodes = 16
	baseCfg := func(fs *hdfs.FileSystem) Config {
		return Config{
			FS: fs, File: "log", TargetSub: "movie-A",
			App: apps.WordCount{}, Picker: sched.NewLocalityPicker,
			ExecuteApp: true,
		}
	}
	at := midFilterTime(t, baseCfg(faultEnv(t, nodes)), 0.5)
	weights := oracleWeights(t, faultEnv(t, nodes), "movie-A")

	schedulers := []struct {
		name  string
		tweak func(*Config)
	}{
		{"hadoop-locality", func(c *Config) {}},
		{"datanet", func(c *Config) { c.Picker = sched.NewDataNetPicker; c.Weights = weights }},
		{"speculative", func(c *Config) { c.Speculative = true }},
	}
	for _, s := range schedulers {
		t.Run(s.name, func(t *testing.T) {
			clean := baseCfg(faultEnv(t, nodes))
			s.tweak(&clean)
			want, err := Run(clean)
			if err != nil {
				t.Fatal(err)
			}
			faulty := baseCfg(faultEnv(t, nodes))
			s.tweak(&faulty)
			faulty.Faults = &faults.Plan{Crashes: []faults.Crash{
				{Node: 4, At: at},
				{Node: 11, At: at},
			}}
			got, err := Run(faulty)
			if err != nil {
				t.Fatalf("job must survive 2/16 crashes: %v", err)
			}
			if !reflect.DeepEqual(got.Output, want.Output) {
				t.Errorf("output diverges from fault-free run (%d vs %d keys)", len(got.Output), len(want.Output))
			}
			if got.NodeCrashes != 2 {
				t.Errorf("NodeCrashes = %d, want 2", got.NodeCrashes)
			}
			if got.TasksRetried == 0 {
				t.Error("expected nonzero TasksRetried after mid-filter crashes")
			}
			if got.JobTime < want.JobTime {
				t.Errorf("crashed run finished faster (%g) than healthy run (%g)", got.JobTime, want.JobTime)
			}
			// Workload conservation: recovery must not drop target bytes.
			var healthy, crashed int64
			for _, w := range want.NodeWorkload {
				healthy += w
			}
			for _, w := range got.NodeWorkload {
				crashed += w
			}
			if healthy != crashed {
				t.Errorf("workload not conserved: %d vs %d", crashed, healthy)
			}
			for _, d := range []cluster.NodeID{4, 11} {
				if got.NodeWorkload[d] != 0 {
					t.Errorf("dead node %d still credited with %d workload bytes", d, got.NodeWorkload[d])
				}
			}
		})
	}
}

// Crashing a replica holder mid-job triggers name-node re-replication: the
// filesystem must be back at full replication health afterwards, and the
// job output must match the no-fault run.
func TestCrashRepairsReplication(t *testing.T) {
	clean := Config{
		FS: faultEnv(t, 8), File: "log", TargetSub: "movie-A",
		App: apps.WordCount{}, Picker: sched.NewLocalityPicker, ExecuteApp: true,
	}
	want, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	fs := faultEnv(t, 8)
	victim := cluster.NodeID(3)
	if len(fs.NodeBlocks(victim)) == 0 {
		t.Fatal("fixture: victim holds no replicas")
	}
	cfg := clean
	cfg.FS = fs
	cfg.Faults = &faults.Plan{Crashes: []faults.Crash{{Node: victim, At: midFilterTime(t, cfg, 0.5)}}}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.ReplicasRepaired == 0 {
		t.Error("expected re-replication after losing a replica holder")
	}
	if bad := fs.ReplicationHealth(); len(bad) != 0 {
		t.Errorf("replication not restored after recovery: %v", bad)
	}
	if n := len(fs.NodeBlocks(victim)); n != 0 {
		t.Errorf("crashed node still holds %d replicas", n)
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Error("output diverges from no-fault run after repair")
	}
}

// Destroying every replica of a block must fail the job with a typed
// error — never a hang or a panic.
func TestAllReplicasLostTypedError(t *testing.T) {
	topo := cluster.MustHomogeneous(4, 1)
	fs, err := hdfs.NewFileSystem(topo, hdfs.Config{BlockSize: 2048, Replication: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var recs []records.Record
	for i := 0; i < 400; i++ {
		recs = append(recs, records.Record{Sub: "movie-A", Time: int64(i), Payload: strings.Repeat("w ", 20)})
	}
	if _, err := fs.Write("log", recs); err != nil {
		t.Fatal(err)
	}
	// Find a block and kill both of its replica holders at t=0, before any
	// filter output exists anywhere.
	blocks, _ := fs.Blocks("log")
	holders := fs.Locations(blocks[0].ID)
	if len(holders) != 2 {
		t.Fatalf("fixture: block 0 has %d replicas", len(holders))
	}
	cfg := Config{
		FS: fs, File: "log", TargetSub: "", App: apps.WordCount{},
		Picker: sched.NewLocalityPicker,
		Faults: &faults.Plan{Crashes: []faults.Crash{
			{Node: holders[0], At: 0},
			{Node: holders[1], At: 0},
		}},
	}
	_, err = Run(cfg)
	if !errors.Is(err, ErrDataLost) {
		t.Fatalf("err = %v, want ErrDataLost", err)
	}
	var bf *BlockFailure
	if !errors.As(err, &bf) {
		t.Fatalf("err %v is not a *BlockFailure", err)
	}
}

// A cluster that dies entirely mid-job fails with ErrNoLiveNodes (when the
// data itself survives on... nothing — data loss may surface first, so use
// rejoining crashes that strand the retry queue is not possible; instead
// kill all nodes of a replication-3 cluster where every block then loses
// all replicas: data loss wins). The cleaner no-live-nodes path is covered
// via reducer placement: all nodes dead before the shuffle.
func TestWholeClusterDeathIsTyped(t *testing.T) {
	fs := faultEnv(t, 4)
	cfg := Config{
		FS: fs, File: "log", TargetSub: "movie-A", App: apps.WordCount{},
		Picker: sched.NewLocalityPicker,
		Faults: &faults.Plan{Crashes: []faults.Crash{
			{Node: 0, At: 0.01}, {Node: 1, At: 0.01}, {Node: 2, At: 0.01}, {Node: 3, At: 0.01},
		}},
	}
	_, err := Run(cfg)
	if !errors.Is(err, ErrDataLost) && !errors.Is(err, ErrNoLiveNodes) {
		t.Fatalf("err = %v, want ErrDataLost or ErrNoLiveNodes", err)
	}
}

// Transient read errors burn attempts but the job completes with correct
// output, reporting the injected failures.
func TestTransientReadErrorsRecovered(t *testing.T) {
	clean := Config{
		FS: faultEnv(t, 8), File: "log", TargetSub: "movie-A",
		App: apps.WordCount{}, Picker: sched.NewLocalityPicker, ExecuteApp: true,
	}
	want, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	cfg := clean
	cfg.FS = faultEnv(t, 8)
	cfg.Faults = &faults.Plan{Seed: 5, Read: faults.ReadErrors{Prob: 0.25}}
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 8}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.TransientErrors == 0 {
		t.Error("expected injected read errors at Prob=0.25")
	}
	if got.TasksRetried < got.TransientErrors {
		t.Errorf("TasksRetried=%d < TransientErrors=%d", got.TasksRetried, got.TransientErrors)
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Error("output diverges under transient errors")
	}
	if got.JobTime <= want.JobTime {
		t.Errorf("retries are not free: %g <= %g", got.JobTime, want.JobTime)
	}
}

// Relentless read errors exhaust the attempt cap with a typed error.
func TestRetriesExhaustedTypedError(t *testing.T) {
	cfg := Config{
		FS: faultEnv(t, 8), File: "log", TargetSub: "movie-A",
		App: apps.WordCount{}, Picker: sched.NewLocalityPicker,
		Faults: &faults.Plan{Seed: 1, Read: faults.ReadErrors{Prob: 0.95}},
		Retry:  faults.RetryPolicy{MaxAttempts: 2},
	}
	_, err := Run(cfg)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	var bf *BlockFailure
	if !errors.As(err, &bf) || bf.Attempts != 2 {
		t.Fatalf("err %v should be a *BlockFailure with 2 attempts", err)
	}
}

// A node that crashes and rejoins returns empty: its outputs are redone
// elsewhere and the job completes correctly.
func TestCrashWithRejoinCompletes(t *testing.T) {
	clean := Config{
		FS: faultEnv(t, 8), File: "log", TargetSub: "movie-A",
		App: apps.WordCount{}, Picker: sched.NewLocalityPicker, ExecuteApp: true,
	}
	want, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	at := midFilterTime(t, clean, 0.4)
	cfg := clean
	cfg.FS = faultEnv(t, 8)
	cfg.Faults = &faults.Plan{Crashes: []faults.Crash{{Node: 2, At: at, RejoinAt: at * 1.5}}}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Error("output diverges after crash+rejoin")
	}
	if got.NodeCrashes != 1 {
		t.Errorf("NodeCrashes = %d, want 1", got.NodeCrashes)
	}
}

// Corrupt or absent ElasticMap meta-data degrades to the locality baseline
// with the fallback recorded — never a panic or job failure.
func TestMetadataFallback(t *testing.T) {
	fs := faultEnv(t, 8)
	nBlocks := len(oracleWeights(t, fs, "movie-A"))
	cases := []struct {
		name  string
		tweak func(*Config)
	}{
		{"codec error", func(c *Config) { c.WeightsErr = elasticmap.ErrCodec }},
		{"short vector", func(c *Config) { c.Weights = make([]int64, nBlocks-1) }},
		{"negative weight", func(c *Config) {
			w := make([]int64, nBlocks)
			w[0] = -5
			c.Weights = w
		}},
	}
	clean := Config{
		FS: fs, File: "log", TargetSub: "movie-A",
		App: apps.WordCount{}, Picker: sched.NewLocalityPicker, ExecuteApp: true,
	}
	want, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := clean
			cfg.Picker = sched.NewDataNetPicker
			cfg.SkipEmpty = true
			c.tweak(&cfg)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("degraded metadata must not fail the job: %v", err)
			}
			if !res.MetadataFallback {
				t.Error("MetadataFallback flag not set")
			}
			if !strings.Contains(res.SchedulerName, "fallback") {
				t.Errorf("SchedulerName %q does not record the fallback", res.SchedulerName)
			}
			if res.SkippedBlocks != 0 {
				t.Error("untrusted weights must not skip blocks")
			}
			if !reflect.DeepEqual(res.Output, want.Output) {
				t.Error("fallback output diverges from the locality baseline")
			}
		})
	}
	// Healthy metadata must not trip the fallback.
	cfg := clean
	cfg.Picker = sched.NewDataNetPicker
	cfg.Weights = oracleWeights(t, fs, "movie-A")
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MetadataFallback {
		t.Error("valid weights flagged as fallback")
	}
}

// Speculative execution must tolerate degenerate topologies: a single
// node (no distinct helper) and an all-zero duration profile.
func TestSpeculateDegenerateGuards(t *testing.T) {
	topo := cluster.MustHomogeneous(1, 1)
	fs, err := hdfs.NewFileSystem(topo, hdfs.Config{BlockSize: 2048, Replication: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var recs []records.Record
	for i := 0; i < 50; i++ {
		recs = append(recs, records.Record{Sub: "movie-A", Time: int64(i), Payload: "x"})
	}
	if _, err := fs.Write("log", recs); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		FS: fs, File: "log", TargetSub: "movie-A",
		App: apps.WordCount{}, Picker: sched.NewLocalityPicker, Speculative: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeculativeWins != 0 {
		t.Errorf("single node cannot speculate, wins = %d", res.SpeculativeWins)
	}

	// Direct unit guards: no candidates, one candidate, zero durations.
	inert, _ := faults.NewInjector(nil, 4)
	topo4 := cluster.MustHomogeneous(4, 1)
	dur := map[cluster.NodeID]float64{0: 0, 1: 0, 2: 0, 3: 0}
	wl := map[cluster.NodeID]int64{}
	if w := straggle.BarrierSpeculate(topo4, nil, wl, dur, cfg.TaskOverhead, cfg.App.CostFactor(), inert, nil, 0); w != 0 {
		t.Errorf("no live nodes: wins = %d", w)
	}
	if w := straggle.BarrierSpeculate(topo4, []cluster.NodeID{2}, wl, dur, cfg.TaskOverhead, cfg.App.CostFactor(), inert, nil, 0); w != 0 {
		t.Errorf("one live node: wins = %d", w)
	}
	if w := straggle.BarrierSpeculate(topo4, topo4.IDs(), wl, dur, cfg.TaskOverhead, cfg.App.CostFactor(), inert, nil, 0); w != 0 {
		t.Errorf("all-zero durations: wins = %d", w)
	}
}

// An invalid fault plan is rejected up front.
func TestInvalidFaultPlanRejected(t *testing.T) {
	fs := faultEnv(t, 4)
	cfg := Config{
		FS: fs, File: "log", TargetSub: "movie-A",
		App: apps.WordCount{}, Picker: sched.NewLocalityPicker,
		Faults: &faults.Plan{Crashes: []faults.Crash{{Node: 99, At: 1}}},
	}
	if _, err := Run(cfg); !errors.Is(err, faults.ErrBadPlan) {
		t.Errorf("err = %v, want ErrBadPlan", err)
	}
}

// Degraded (slowed) nodes stretch the job but change nothing else.
func TestSlowNodeStretchesJob(t *testing.T) {
	clean := Config{
		FS: faultEnv(t, 8), File: "log", TargetSub: "movie-A",
		App: apps.WordCount{}, Picker: sched.NewLocalityPicker, ExecuteApp: true,
	}
	want, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	cfg := clean
	cfg.FS = faultEnv(t, 8)
	cfg.Faults = &faults.Plan{Slow: []faults.Slowdown{{Node: 0, CPU: 0.25, Disk: 0.25, Net: 0.25}}}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.JobTime <= want.JobTime {
		t.Errorf("slow node did not stretch the job: %g <= %g", got.JobTime, want.JobTime)
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Error("output diverges with a slow node")
	}
	if got.NodeCrashes != 0 || got.TasksRetried != 0 {
		t.Error("slowdowns must not count as crashes or retries")
	}
}

// TestAnalysisPairCrashLosesSharedBlock: two nodes crash at one instant
// after the filter barrier, and on a 4-node, 2-replica layout some block
// kept its only replicas on exactly that pair. The repair pass reports the
// block lost once, to the first victim's iteration; the second victim's
// fragments must still see it gone, so the job fails with ErrDataLost
// instead of "re-reading" a block no node holds.
func TestAnalysisPairCrashLosesSharedBlock(t *testing.T) {
	env := func() *hdfs.FileSystem {
		return faultLog(t, cluster.MustHomogeneous(4, 1), hdfs.Config{BlockSize: 2048, Replication: 2, Seed: 1})
	}
	cfg := Config{FS: env(), File: "log", TargetSub: "movie-A", App: apps.WordCount{}, Picker: sched.NewLocalityPicker}
	healthy, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := healthy.FilterEnd + 1e-6
	cfg.FS = env()
	cfg.Faults = &faults.Plan{Crashes: []faults.Crash{{Node: 0, At: at}, {Node: 2, At: at}}}
	_, err = Run(cfg)
	if !errors.Is(err, ErrDataLost) {
		t.Fatalf("pair crash at %g s (after the %g s filter barrier): err = %v, want ErrDataLost", at, healthy.FilterEnd, err)
	}
}
