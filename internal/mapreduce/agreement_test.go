package mapreduce_test

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/chaos"
	"datanet/internal/faults"
	"datanet/internal/mapreduce"
	"datanet/internal/sched"
	"datanet/internal/trace"
)

// tracedGoldens names the scheduler×plan combinations whose full JSONL
// timeline is also golden-pinned (a subset, to bound testdata size).
var tracedGoldens = map[string]bool{
	"datanet_healthy":    true,
	"datanet_crash2":     true,
	"datanet_combo":      true,
	"datanet_late-crash": true,
	"locality_rejoin":    true,
}

// taskLinesModelled names the plans whose result goldens keep only their
// summary lines: the model reproduces each committed attempt's task line.
// late-crash keeps its task lines with readerr and combo: its crash lands
// after the barrier, where recovery is beyond the model.
var taskLinesModelled = map[string]bool{"healthy": true, "crash2": true, "rejoin": true, "simultaneous": true, "slow": true}

// The golden matrix pins the engine's output for each scheduler × fault
// plan: the summary lines of every cell, and the task lines of the cells
// the model does not reproduce. A traced re-run must give the same result,
// and each cell without read errors must agree with the model.
func TestGoldenSchedulerFaultMatrix(t *testing.T) {
	for _, gs := range mapreduce.GoldenSchedulers() {
		// Healthy probe fixes the crash instants for this scheduler.
		probe, err := mapreduce.Run(mapreduce.GoldenConfig(t, gs))
		if err != nil {
			t.Fatalf("%s probe: %v", gs.Name, err)
		}
		fe := probe.FilterEnd
		for _, gp := range mapreduce.GoldenPlans() {
			name := gs.Name + "_" + gp.Name
			t.Run(name, func(t *testing.T) {
				cfg := mapreduce.GoldenConfig(t, gs)
				cfg.Faults = gp.Plan(fe)
				res, err := mapreduce.Run(cfg)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				dump := mapreduce.DumpResult(res)
				pinned := dump
				if taskLinesModelled[gp.Name] {
					lines := strings.SplitAfter(dump, "\n")
					pinned = strings.Join(slices.DeleteFunc(lines, func(l string) bool { return strings.HasPrefix(l, "task ") }), "")
				}
				mapreduce.CheckGolden(t, name+".golden", []byte(pinned))

				cfg = mapreduce.GoldenConfig(t, gs)
				cfg.Faults = gp.Plan(fe)
				rec := trace.New()
				cfg.Trace = rec
				tres, err := mapreduce.Run(cfg)
				if err != nil {
					t.Fatalf("traced run: %v", err)
				}
				if mapreduce.DumpResult(tres) != dump {
					t.Errorf("traced result differs from untraced")
				}
				if tracedGoldens[name] {
					var buf bytes.Buffer
					if err := rec.WriteJSONL(&buf); err != nil {
						t.Fatal(err)
					}
					mapreduce.CheckGolden(t, name+".trace.golden", buf.Bytes())
				}

				if cfg.Faults == nil || cfg.Faults.Read.Prob == 0 {
					cfg = mapreduce.GoldenConfig(t, gs)
					cfg.Faults = gp.Plan(fe)
					if diff, _, _ := againstModel(cfg); diff != "" {
						t.Errorf("engine and model disagree: %s", diff)
					}
				}
			})
		}
	}
}

// TestFixturesAgreeWithModel: nodes of 1, 2 and 4 slots with two victims
// at one instant and a node crashing again after its rejoin; and every
// replica holder of one block dying while its task runs, which fails the
// job with ErrDataLost.
func TestFixturesAgreeWithModel(t *testing.T) {
	hetero := mapreduce.Config{FS: mapreduce.HeteroSlotsEnv(t), File: "log", TargetSub: "movie-A",
		App: apps.WordCount{}, Picker: sched.NewDataNetPicker}
	probe, err := mapreduce.Run(hetero)
	if err != nil {
		t.Fatal(err)
	}
	hetero.FS, hetero.Faults = mapreduce.HeteroSlotsEnv(t), mapreduce.HeteroSlotsPlan(probe.FilterEnd)
	lost := mapreduce.GoldenConfig(t, mapreduce.GoldenSchedulers()[0])
	lost.Faults = &faults.Plan{}
	for _, n := range lost.FS.Locations(0) {
		lost.Faults.Crashes = append(lost.Faults.Crashes, faults.Crash{Node: n, At: 0.05})
	}
	for _, c := range []struct {
		cfg  mapreduce.Config
		want error
	}{{hetero, nil}, {lost, mapreduce.ErrDataLost}} {
		if diff, _, err := againstModel(c.cfg); diff != "" || !errors.Is(err, c.want) {
			t.Errorf("%v: error %v, want %v; disagreement: %s", c.cfg.Faults.Crashes, err, c.want, diff)
		}
	}
}

// TestFilterAgreesWithModel is the model campaign (see modelCampaign).
func TestFilterAgreesWithModel(t *testing.T) {
	c := modelCampaign(t)
	rep := c.Run(modelPlans, 1)
	t.Logf("%d plans: %v", rep.Runs, rep.Census)
	if len(rep.Violations) > 0 {
		t.Errorf("%d plans disagree; first: %v\nshrunk plan: %+v", len(rep.Violations), rep.Violations[0], c.Shrink(rep.Violations[0]))
	}
}

// FuzzFilterAgainstModel: any seed's plan, under what the seed draws.
func FuzzFilterAgainstModel(f *testing.F) {
	c := modelCampaign(f)
	for seed := range uint64(6) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if vs := c.Check(seed, c.Gen(seed), chaos.Census{}); len(vs) > 0 {
			t.Fatalf("%v\nshrunk plan: %+v", vs[0], c.Shrink(vs[0]))
		}
	})
}

// modelCampaign checks GenPlan plans on the golden fixture, over horizons
// of its locality makespan, with read errors zero: they are outside the
// model. Each seed draws a scheduler and a retry policy — an attempt cap of
// 1 to 4, so some jobs spend a task's attempts, and a first backoff of
// 0.01 to 0.5 s, so retries run while crashes still land.
func modelCampaign(t testing.TB) *chaos.Campaign[*faults.Plan] {
	fs, scheds := mapreduce.GoldenEnv(t), mapreduce.GoldenSchedulers()
	probe, err := mapreduce.Run(mapreduce.Config{FS: fs.Clone(), File: "log", TargetSub: "movie-A",
		App: apps.WordCount{}, Picker: sched.NewLocalityPicker})
	if err != nil {
		t.Fatal(err)
	}
	params := chaos.Params{Nodes: fs.Topology().N(), MaxCrashes: 4, MaxSlow: 3, RejoinProb: 0.5}
	return &chaos.Campaign[*faults.Plan]{
		Gen: func(seed uint64) *faults.Plan { return chaos.GenPlan(seed, probe.FilterEnd, params) },
		Check: func(seed uint64, plan *faults.Plan, census chaos.Census) []chaos.Violation {
			gs := scheds[seed%uint64(len(scheds))]
			census[gs.Name]++
			diff, _, err := againstModel(mapreduce.Config{FS: fs.Clone(), File: "log", TargetSub: "movie-A",
				App: apps.WordCount{}, Picker: gs.Factory, Faults: plan,
				Retry: faults.RetryPolicy{MaxAttempts: 1 + int(seed>>32%4), Backoff: 0.01 * float64(1+seed>>40%50)}})
			if err != nil {
				census["failed"]++
			}
			if diff != "" {
				return []chaos.Violation{{Seed: seed, Arm: gs.Name, Invariant: "model-agreement", Detail: diff}}
			}
			return nil
		},
		Edits: chaos.PlanEdits,
	}
}

// againstModel runs cfg, traced, on the engine and on the model, and
// returns the first line where their accounts differ ("" when none) and
// the model's result and error.
func againstModel(cfg mapreduce.Config) (diff string, res *mapreduce.Result, err error) {
	m := &model{picker: cfg.Picker, fs: cfg.FS.Clone(), retry: cfg.Retry.WithDefaults(), overhead: cfg.TaskOverhead}
	if m.overhead <= 0 {
		m.overhead = 0.1 // Run's default
	}
	if m.inj, err = faults.NewInjector(cfg.Faults, m.fs.Topology().N()); err != nil {
		return err.Error(), nil, err
	}
	blocks, _ := m.fs.Blocks(cfg.File)
	for i, b := range blocks {
		var matched int64
		for _, r := range b.Records {
			if r.Sub == cfg.TargetSub {
				matched += r.Size()
			}
		}
		t := sched.Task{Block: b.ID, Index: i, Weight: matched, Bytes: b.Bytes, Locations: m.fs.Locations(b.ID)}
		if cfg.Weights != nil {
			t.Weight = cfg.Weights[i]
		}
		m.tasks, m.matched = append(m.tasks, t), append(m.matched, matched)
	}
	rec := trace.New()
	cfg.Trace = rec
	_, atBarrier, engineErr := mapreduce.RunAtBarrier(cfg)
	var decisions []string
	for _, ev := range rec.Events() {
		if ev.Type == trace.EvDecision {
			decisions = append(decisions, fmt.Sprintf("%d %d %s", ev.Node, ev.Block, ev.Decision.Rule))
		}
	}
	res, modelDecisions, err := m.run()
	got, want := account(atBarrier, decisions, engineErr), account(res, modelDecisions, err)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("engine %s, model %s", got[i], want[i]), res, err
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("engine %d lines, model %d", len(got), len(want)), res, err
	}
	return "", res, err
}

// account renders the filter phase one fact a line: the decisions in
// order, then a failing job's error, or else every committed attempt by
// (task, attempt), the barrier's counters and the per-node workload.
// Floats print in their shortest exact form, so equal lines mean equal
// bits.
func account(res *mapreduce.Result, decisions []string, err error) []string {
	var out []string
	for i, d := range decisions {
		out = append(out, fmt.Sprintf("decision %d: %s", i, d))
	}
	if err != nil {
		return append(out, "error "+err.Error())
	}
	stats := slices.SortedFunc(slices.Values(res.Tasks), func(a, b mapreduce.TaskStat) int {
		return cmp.Or(cmp.Compare(a.Task.Index, b.Task.Index), cmp.Compare(a.Attempt, b.Attempt))
	})
	for _, st := range stats {
		out = append(out, fmt.Sprintf("task idx=%d attempt=%d node=%d start=%v end=%v scan=%v compute=%v matched=%d local=%v lost=%v",
			st.Task.Index, st.Attempt, st.Node, st.Start, st.End, st.Scan, st.Compute, st.Matched, st.Local, st.Lost))
	}
	out = append(out, fmt.Sprintf("filterEnd=%v local=%d remote=%d crashes=%d retried=%d lostOutputs=%d repaired=%d",
		res.FilterEnd, res.LocalTasks, res.RemoteTasks, res.NodeCrashes, res.TasksRetried, res.LostOutputs, res.ReplicasRepaired))
	for _, id := range slices.Sorted(maps.Keys(res.NodeWorkload)) {
		out = append(out, fmt.Sprintf("workload node=%d bytes=%d", id, res.NodeWorkload[id]))
	}
	return out
}
