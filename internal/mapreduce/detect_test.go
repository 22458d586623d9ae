package mapreduce

import (
	"math"
	"reflect"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/detect"
	"datanet/internal/faults"
	"datanet/internal/sched"
	"datanet/internal/trace"
)

// detectConfig is the shared workload for detector-mode tests: 8 nodes,
// locality scheduling, app execution on so output correctness is checked.
func detectConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		FS: faultEnv(t, 8), File: "log", TargetSub: "movie-A",
		App: apps.WordCount{}, Picker: sched.NewLocalityPicker,
		ExecuteApp: true,
	}
}

// The headline detector property: under heartbeat detection the master
// reacts to every crash strictly *after* it happened (it has to wait out
// missed beats), where the oracle reacts at the crash instant. Both must
// still produce the fault-free output.
func TestHeartbeatStrictlyLaterThanOracle(t *testing.T) {
	clean := detectConfig(t)
	want, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	at := midFilterTime(t, clean, 0.5)
	plan := &faults.Plan{Crashes: []faults.Crash{{Node: 3, At: at}, {Node: 6, At: at * 1.2}}}

	oracleCfg := detectConfig(t)
	oracleCfg.Faults = plan
	oracle, err := Run(oracleCfg)
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	if len(oracle.DetectionLatency) != 0 {
		t.Errorf("oracle mode recorded detection latencies: %v", oracle.DetectionLatency)
	}

	hbCfg := detectConfig(t)
	hbCfg.Faults = plan
	hbCfg.Detect = detect.Config{Mode: detect.Heartbeat, Interval: 0.5}
	hb, err := Run(hbCfg)
	if err != nil {
		t.Fatalf("heartbeat run: %v", err)
	}
	if len(hb.DetectionLatency) != len(plan.Crashes) {
		t.Fatalf("DetectionLatency has %d entries, want one per crash (%d): %v",
			len(hb.DetectionLatency), len(plan.Crashes), hb.DetectionLatency)
	}
	for i, l := range hb.DetectionLatency {
		if l <= 0 {
			t.Errorf("latency[%d] = %g, want strictly positive (response after crash)", i, l)
		}
	}
	if hb.NodeCrashes != oracle.NodeCrashes {
		t.Errorf("NodeCrashes diverge: heartbeat %d, oracle %d", hb.NodeCrashes, oracle.NodeCrashes)
	}
	for name, got := range map[string]*Result{"oracle": oracle, "heartbeat": hb} {
		if !reflect.DeepEqual(got.Output, want.Output) {
			t.Errorf("%s output diverges from fault-free run", name)
		}
	}
	// Waiting for missed beats cannot make the job faster than reacting
	// instantly.
	if hb.JobTime < oracle.JobTime {
		t.Errorf("heartbeat job (%g) finished before oracle job (%g)", hb.JobTime, oracle.JobTime)
	}
}

// A live-but-slow node misses its fixed heartbeat deadline: the detector
// falsely suspects it, its in-flight work is speculatively re-dispatched,
// and whichever attempt finishes second is killed. The job must still
// produce the correct output exactly once per block.
func TestFalseSuspicionDuplicateDedupe(t *testing.T) {
	// 16 nodes over the same 16-block file leaves idle slots for duplicate
	// dispatch.
	clean := Config{
		FS: faultEnv(t, 16), File: "log", TargetSub: "movie-A",
		App: apps.WordCount{}, Picker: sched.NewLocalityPicker,
		ExecuteApp: true,
	}
	want, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	cfg := clean
	cfg.FS = faultEnv(t, 16)
	// CPU 0.05 stretches node 1's beat period to Interval/0.05 = 0.4 s
	// against a 0.06 s timeout: the node is alive but looks dead to the
	// master. The tight interval keeps the timeout inside this fixture's
	// short filter phase, and the near-zero backoff lets the speculative
	// duplicates start while the originals are still in flight.
	cfg.Faults = &faults.Plan{Slow: []faults.Slowdown{{Node: 1, CPU: 0.05}}}
	cfg.Detect = detect.Config{Mode: detect.Heartbeat, Interval: 0.02}
	cfg.Retry = faults.RetryPolicy{Backoff: 0.001}
	cfg.Trace = rec
	got, err := Run(cfg)
	if err != nil {
		t.Fatalf("false-suspicion run: %v", err)
	}
	if got.FalseSuspicions == 0 {
		t.Fatal("slow node was never falsely suspected under a fixed timeout")
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Error("output diverges after false suspicions")
	}
	// Exactly-once accounting: total filtered bytes are conserved even
	// though some blocks ran twice.
	var healthy, suspected int64
	for _, w := range want.NodeWorkload {
		healthy += w
	}
	for _, w := range got.NodeWorkload {
		suspected += w
	}
	if healthy != suspected {
		t.Errorf("workload not conserved under duplicates: %d vs %d", suspected, healthy)
	}
	// Losers must be visible in the trace as kills, and counted.
	var kills int
	for _, ev := range rec.Events() {
		if ev.Type == trace.EvTaskKilled {
			kills++
		}
	}
	if kills == 0 {
		t.Error("no duplicate attempt was ever killed")
	}
	if got.DuplicateKills != kills {
		t.Errorf("DuplicateKills=%d but trace shows %d task.killed events", got.DuplicateKills, kills)
	}
	if suspects := countEvents(rec, trace.EvNodeSuspect); suspects == 0 {
		t.Error("no node.suspect events traced")
	}
	// Kill accounting: attempts made redundant by a first finisher are
	// still in flight when the phase completes. The barrier cuts them off,
	// and the slot time they burned from their start until then is a traced
	// span charged to their node like every other attempt's.
	spans := map[cluster.NodeID]float64{}
	cutOff := 0
	for _, ev := range rec.Events() {
		switch {
		case ev.Type == trace.EvTaskKilled && ev.Detail == "phase-end-kill":
			cutOff++
			burned := got.FilterEnd - ev.T
			if burned <= 0 || math.Abs(ev.Dur-burned) > 1e-9 {
				t.Errorf("phase-end kill on node %d carries dur %g, burned %g", ev.Node, ev.Dur, burned)
			}
			spans[cluster.NodeID(ev.Node)] += burned
		case ev.Type == trace.EvTaskFinish, ev.Type == trace.EvTaskFail,
			ev.Type == trace.EvTaskKilled, ev.Type == trace.EvAnalysisSpan:
			spans[cluster.NodeID(ev.Node)] += ev.Dur
		}
	}
	if cutOff == 0 {
		t.Error("no attempt was still in flight at the barrier")
	}
	for id, sum := range spans {
		if got.NodeBusy[id] < sum-1e-9 {
			t.Errorf("node %d: NodeBusy %g below its traced spans %g", id, got.NodeBusy[id], sum)
		}
	}
}

func countEvents(rec *trace.Recorder, typ trace.EventType) int {
	n := 0
	for _, ev := range rec.Events() {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// Satellite (c): a node crashes and rejoins while its re-dispatched block
// task is in flight. Under both the oracle and the heartbeat detector the
// block must be counted exactly once, with the losing attempt visible in
// the trace as voided or killed.
func TestRejoinRaceExactlyOnce(t *testing.T) {
	clean := detectConfig(t)
	want, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	at := midFilterTime(t, clean, 0.4)
	modes := []struct {
		name string
		det  detect.Config
	}{
		{"oracle", detect.Config{}},
		{"heartbeat", detect.Config{Mode: detect.Heartbeat, Interval: 0.5}},
		// A short outage that rejoins *before* the fixed timeout expires:
		// the master only learns of the crash from the re-registration
		// beat, racing the node's own revived slots against the requeued
		// work.
		{"heartbeat-short-outage", detect.Config{Mode: detect.Heartbeat, Interval: 0.5, Timeout: 4}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			rec := trace.New()
			cfg := detectConfig(t)
			cfg.Faults = &faults.Plan{Crashes: []faults.Crash{{Node: 2, At: at, RejoinAt: at + 2}}}
			cfg.Detect = m.det
			cfg.Trace = rec
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("rejoin-race run: %v", err)
			}
			if !reflect.DeepEqual(got.Output, want.Output) {
				t.Error("output diverges across the rejoin race")
			}
			var healthy, raced int64
			for _, w := range want.NodeWorkload {
				healthy += w
			}
			for _, w := range got.NodeWorkload {
				raced += w
			}
			if healthy != raced {
				t.Errorf("workload not conserved: %d vs %d", raced, healthy)
			}
			// Exactly-once: every block finishes exactly once more than it
			// was killed as a duplicate.
			finishes := map[int]int{}
			for _, ev := range rec.Events() {
				if ev.Type == trace.EvTaskFinish {
					finishes[ev.Block]++
				}
			}
			for b, n := range finishes {
				if n > 2 {
					t.Errorf("block %d committed %d times", b, n)
				}
			}
			losers := countEvents(rec, trace.EvTaskVoided) + countEvents(rec, trace.EvTaskKilled)
			if losers == 0 {
				t.Error("no voided or killed attempt traced for the crashed node")
			}
			switch m.name {
			case "heartbeat":
				// Outage (2 s) outlasts the timeout (1.5 s): the node was
				// suspected, so its rejoin beat must trace node.clear.
				if countEvents(rec, trace.EvNodeClear) == 0 {
					t.Error("rejoining node never traced node.clear")
				}
			case "heartbeat-short-outage":
				// Outage (2 s) is shorter than the timeout (4 s): the
				// master only learns of the crash from the re-registration
				// beat, so the response lands before the timeout would.
				if len(got.DetectionLatency) == 0 {
					t.Fatal("short outage recorded no detection latency")
				}
				for _, l := range got.DetectionLatency {
					if l <= 0 || l >= 4 {
						t.Errorf("re-registration latency %g not in (0, timeout)", l)
					}
				}
			}
		})
	}
}
