package mapreduce

import (
	"reflect"
	"strings"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/faults"
	"datanet/internal/hdfs"
	"datanet/internal/records"
	"datanet/internal/sched"
	"datanet/internal/sim"
	"datanet/internal/straggle"
)

// slowHeavyPlan degrades a few nodes hard: the classic straggler profile
// (no crashes, no read errors — pure heterogeneity).
func slowHeavyPlan() *faults.Plan {
	return &faults.Plan{Slow: []faults.Slowdown{
		{Node: 3, CPU: 0.05, Disk: 0.05},
		{Node: 7, CPU: 0.15, Disk: 0.15},
	}}
}

// stragglerEnv builds a cluster whose filter tasks are scan-dominated
// (MiB-scale blocks), so a slowed node's attempts genuinely straggle
// instead of hiding behind the fixed task overhead.
func stragglerEnv(t *testing.T, n int) *hdfs.FileSystem {
	t.Helper()
	topo := cluster.MustHomogeneous(16, 2)
	fs, err := hdfs.NewFileSystem(topo, hdfs.Config{BlockSize: 1 << 20, Replication: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("x", 8<<10)
	var recs []records.Record
	for i := 0; i < n; i++ {
		recs = append(recs, records.Record{Sub: "movie-A", Time: int64(i), Rating: 3, Payload: payload})
	}
	if _, err := fs.Write("log", recs); err != nil {
		t.Fatal(err)
	}
	return fs
}

func mitigationCfg(t *testing.T, mit *straggle.Config, plan *faults.Plan) Config {
	t.Helper()
	return Config{
		FS: stragglerEnv(t, 3000), File: "log", TargetSub: "movie-A",
		App: apps.WordCount{}, Picker: sched.NewLocalityPicker,
		ExecuteApp: true, Mitigate: mit, Faults: plan,
		TaskOverhead: 0.01,
	}
}

// exactlyOnce asserts every scheduled block index has exactly one
// surviving (non-Lost) TaskStat — speculation and coding must never
// double-produce or drop a task's output.
func exactlyOnce(t *testing.T, res *Result, parityFrom int) {
	t.Helper()
	live := map[int]int{}
	for _, st := range res.Tasks {
		if st.Lost {
			continue
		}
		if parityFrom >= 0 && st.Task.Index >= parityFrom {
			continue // parity units are redundancy, not output
		}
		live[st.Task.Index]++
	}
	for idx, n := range live {
		if n != 1 {
			t.Errorf("block %d has %d surviving outputs, want 1", idx, n)
		}
	}
}

// An explicitly-off mitigation config is byte-identical to none at all.
func TestMitigateOffIdentical(t *testing.T) {
	base, err := Run(mitigationCfg(t, nil, slowHeavyPlan()))
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(mitigationCfg(t, &straggle.Config{}, slowHeavyPlan()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, off) {
		t.Error("Mitigate{Mode: off} result differs from nil Mitigate")
	}
}

// Quantile speculation strictly improves the filter makespan under a
// heavy-slowdown plan, stays within its launch budget, and changes
// nothing about the job output.
func TestQuantileSpeculationBeatsStragglers(t *testing.T) {
	base, err := Run(mitigationCfg(t, nil, slowHeavyPlan()))
	if err != nil {
		t.Fatal(err)
	}
	mit := &straggle.Config{Mode: straggle.ModeSpeculative, Quantile: 0.9}
	spec, err := Run(mitigationCfg(t, mit, slowHeavyPlan()))
	if err != nil {
		t.Fatal(err)
	}
	if spec.SpeculativeLaunches == 0 {
		t.Fatal("no quantile backups launched under a heavy-slowdown plan")
	}
	if spec.FilterEnd >= base.FilterEnd {
		t.Errorf("speculative FilterEnd %.2f did not beat baseline %.2f", spec.FilterEnd, base.FilterEnd)
	}
	if spec.SpeculativeWins == 0 {
		t.Error("backups launched but none won")
	}
	if !reflect.DeepEqual(spec.Output, base.Output) {
		t.Error("speculation changed the job output")
	}
	exactlyOnce(t, spec, -1)
	// Default per-job budget: max(1, tasks/4).
	tasks := len(base.Tasks)
	if budget := tasks / 4; spec.SpeculativeLaunches > budget && budget > 0 {
		t.Errorf("launches %d exceed per-job budget %d", spec.SpeculativeLaunches, budget)
	}
	if spec.WastedTaskSeconds < 0 {
		t.Errorf("negative wasted work %.2f", spec.WastedTaskSeconds)
	}
}

// The per-job budget max(1, tasks/4) caps launches exactly: a file of
// 8–11 blocks allows two backups.
func TestQuantileBudgetRespected(t *testing.T) {
	mit := &straggle.Config{Mode: straggle.ModeSpeculative, Quantile: 0.75}
	cfg := mitigationCfg(t, mit, slowHeavyPlan())
	cfg.FS = stragglerEnv(t, 1000)
	if blocks, err := cfg.FS.Blocks("log"); err != nil || len(blocks)/4 != 2 {
		t.Fatalf("fixture has %d blocks (%v), want a per-job budget of 2", len(blocks), err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeculativeLaunches != 2 {
		t.Errorf("launches = %d, want the per-job budget of 2", res.SpeculativeLaunches)
	}
}

// Coded k-of-n execution reconstructs missing fragments through the real
// Reed–Solomon decode and produces byte-identical output to the uncoded
// run — healthy, under heavy slowdown, and across a crash.
func TestCodedMatchesUncodedOutput(t *testing.T) {
	plans := map[string]*faults.Plan{
		"healthy":    nil,
		"slow-heavy": slowHeavyPlan(),
		"slow+crash": {
			Slow:    []faults.Slowdown{{Node: 3, CPU: 0.05, Disk: 0.05}},
			Crashes: []faults.Crash{{Node: 9, At: 0.1}},
		},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			base, err := Run(mitigationCfg(t, nil, plan))
			if err != nil {
				t.Fatal(err)
			}
			mit := &straggle.Config{Mode: straggle.ModeCoded, Rate: 0.7}
			coded, err := Run(mitigationCfg(t, mit, plan))
			if err != nil {
				t.Fatal(err)
			}
			if coded.CodedGroups == 0 || coded.CodedParityUnits == 0 {
				t.Fatalf("coded layout empty: %d groups, %d parity units",
					coded.CodedGroups, coded.CodedParityUnits)
			}
			if !reflect.DeepEqual(coded.Output, base.Output) {
				t.Error("coded output differs from uncoded")
			}
			if name == "slow-heavy" {
				if coded.CodedDecodes == 0 {
					t.Error("straggling units never triggered a decode")
				}
				if coded.FilterEnd >= base.FilterEnd {
					t.Errorf("coded FilterEnd %.2f did not beat baseline %.2f",
						coded.FilterEnd, base.FilterEnd)
				}
			}
		})
	}
}

// Mitigation × fault interplay (satellite): quantile backups launched
// under slowdown while crashes destroy nodes mid-phase — including nodes
// that may be running backups. Output must equal the unmitigated run's
// and stay exactly-once.
func TestSpeculationSurvivesCrashes(t *testing.T) {
	plan := &faults.Plan{
		Slow: []faults.Slowdown{
			{Node: 3, CPU: 0.05, Disk: 0.05},
			{Node: 11, CPU: 0.1, Disk: 0.1},
		},
		// Staggered crashes across the phase: early, mid (when backups for
		// the stragglers' work are in flight on surviving nodes), and a
		// rejoining node.
		Crashes: []faults.Crash{
			{Node: 5, At: 0.04},
			{Node: 8, At: 0.08, RejoinAt: 0.6},
			{Node: 12, At: 0.15},
		},
	}
	base, err := Run(mitigationCfg(t, nil, plan))
	if err != nil {
		t.Fatal(err)
	}
	mit := &straggle.Config{Mode: straggle.ModeSpeculative, Quantile: 0.75}
	spec, err := Run(mitigationCfg(t, mit, plan))
	if err != nil {
		t.Fatal(err) // speculation must never fail an otherwise-successful job
	}
	if spec.SpeculativeLaunches == 0 {
		t.Fatal("plan did not exercise speculation")
	}
	if !reflect.DeepEqual(spec.Output, base.Output) {
		t.Error("speculation under crashes changed the job output")
	}
	exactlyOnce(t, spec, -1)
	exactlyOnce(t, base, -1)
}

// Tied duplicate completions (satellite): when two attempts of the same
// task complete at the same instant on different nodes, the kernel's
// total order (At, Prio, K1=node, K2=slot, seq) decides — the lower node
// commits, the other is killed as a duplicate. The winner must not depend
// on dispatch order.
func TestTiedDuplicateCompletionLowestNodeWins(t *testing.T) {
	pairs := [][2]cluster.NodeID{{0, 1}, {2, 5}, {6, 3}}
	for _, pair := range pairs {
		for _, swap := range []bool{false, true} {
			a, b := pair[0], pair[1]
			if swap {
				a, b = b, a
			}
			lo := a
			if b < lo {
				lo = b
			}
			topo := cluster.MustHomogeneous(8, 2)
			inj, err := faults.NewInjector(nil, topo.N())
			if err != nil {
				t.Fatal(err)
			}
			task := sched.Task{Block: 0, Index: 0, Weight: 100, Bytes: 2048,
				Locations: []cluster.NodeID{a, b}}
			tasks := []sched.Task{task}
			cfg := Config{TaskOverhead: 0.1}
			res := &Result{
				NodeBusy:     make(map[cluster.NodeID]float64),
				NodeCompute:  make(map[cluster.NodeID]float64),
				NodeWorkload: make(map[cluster.NodeID]int64),
			}
			spec := straggle.NewSpecEngine(0.9, len(tasks), cfg.TaskOverhead)
			s := newFilterSim(cfg, topo, inj, faults.RetryPolicy{}.WithDefaults(),
				tasks, []int64{500}, sched.NewLocalityPicker(nil, topo), res, nil, spec, nil)
			s.kern.Handle(evSlotFree, s.slotHandler(s.onSlotFree))
			s.kern.Handle(evAttemptDone, s.slotHandler(s.onAttemptDone))
			// Both attempts are replica-local on homogeneous nodes: identical
			// physics, identical end instants.
			s.dispatch(a, 0, 0, pick{}, 0)
			s.dispatch(b, 0, 0, pick{}, 0)
			if ra, rb := s.running[s.slotBase[a]], s.running[s.slotBase[b]]; ra.end != rb.end {
				t.Fatalf("attempts not tied: %g vs %g", ra.end, rb.end)
			}
			if err := s.kern.Run(); err != nil {
				t.Fatal(err)
			}
			if s.doneCount != 1 || len(res.Tasks) != 1 {
				t.Fatalf("want exactly one commit, got doneCount=%d stats=%d",
					s.doneCount, len(res.Tasks))
			}
			if res.Tasks[0].Node != lo {
				t.Errorf("pair %v swap=%v: winner = node %d, want lower node %d",
					pair, swap, res.Tasks[0].Node, lo)
			}
			if res.DuplicateKills != 1 {
				t.Errorf("pair %v swap=%v: DuplicateKills = %d, want 1", pair, swap, res.DuplicateKills)
			}
		}
	}
}

// The spec-check chain must terminate once the phase completes, and the
// kernel event translation covers the new kind.
func TestSpecCheckTranslation(t *testing.T) {
	ev, ok := translateKernelEvent(&sim.Event{At: 1, Kind: evSpecCheck})
	if !ok || ev.Detail != "spec-check" {
		t.Errorf("spec-check translation = %+v, %v", ev, ok)
	}
}

// A backup never spends the original's retry budget. Under this plan a
// quantile backup of a straggler burns on a read error and the straggler's
// own attempt then fails too: with two attempts allowed the task must
// still get its second own execution — committing on attempt 3, which a
// budget shared with backups turns into ErrRetriesExhausted.
func TestBackupDoesNotSpendRetryBudget(t *testing.T) {
	plan := slowHeavyPlan()
	plan.Seed = 4
	plan.Read.Prob = 0.2
	cfg := mitigationCfg(t, &straggle.Config{Mode: straggle.ModeSpeculative, Quantile: 0.9}, plan)
	cfg.Retry.MaxAttempts = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outlived := false
	for _, st := range res.Tasks {
		outlived = outlived || (!st.Lost && st.Attempt > cfg.Retry.MaxAttempts)
	}
	if !outlived {
		t.Error("no task committed beyond MaxAttempts: the plan no longer burns a backup")
	}
	exactlyOnce(t, res, -1)
}

// TestParityUnitAbandoned: with one attempt per task, a read error on a
// parity unit abandons it instead of failing the job, since its group can
// still be satisfied by its other units. The run completes with the
// uncoded run's Output.
func TestParityUnitAbandoned(t *testing.T) {
	cfg := func(mit *straggle.Config) Config {
		return Config{FS: faultEnv(t, 8), File: "log", TargetSub: "movie-A", App: apps.WordCount{},
			Picker: sched.NewLocalityPicker, ExecuteApp: true, Mitigate: mit,
			Faults: &faults.Plan{Seed: 115, Read: faults.ReadErrors{Prob: 0.05}},
			Retry:  faults.RetryPolicy{MaxAttempts: 1}}
	}
	abandoned := 0
	prev := filterEndCheck
	t.Cleanup(func() { filterEndCheck = prev })
	filterEndCheck = func(s *filterSim) {
		prev(s)
		for li, gone := range s.coded.abandoned {
			if gone && !s.coded.layout.IsParity(li) {
				t.Errorf("systematic unit %d abandoned", li)
			}
			if gone {
				abandoned++
			}
		}
	}
	coded, err := Run(cfg(&straggle.Config{Mode: straggle.ModeCoded}))
	if err != nil {
		t.Fatalf("coded run: %v", err)
	}
	if abandoned != 1 {
		t.Fatalf("%d parity units abandoned, want 1", abandoned)
	}
	filterEndCheck = prev
	plain, err := Run(cfg(nil))
	if err != nil {
		t.Fatalf("uncoded run: %v", err)
	}
	if !reflect.DeepEqual(coded.Output, plain.Output) {
		t.Fatal("coded Output differs from the uncoded run's")
	}
}
