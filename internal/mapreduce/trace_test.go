package mapreduce

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/detect"
	"datanet/internal/faults"
	"datanet/internal/hdfs"
	"datanet/internal/records"
	"datanet/internal/sched"
	"datanet/internal/trace"
)

var errFake = errors.New("corrupt meta")

// tracedFaultConfig is a reproducible faulted workload: a mid-filter crash
// with a later rejoin, plus transient read errors. Every caller gets a
// fresh filesystem (crashes mutate block placement).
func tracedFaultConfig(t *testing.T, rec *trace.Recorder) Config {
	t.Helper()
	cfg := baseConfig(faultEnv(t, 8))
	cfg.Picker = sched.NewDataNetPicker
	cfg.Speculative = true
	at := midFilterTime(t, cfg, 0.5)
	cfg.Faults = &faults.Plan{
		Seed:    11,
		Crashes: []faults.Crash{{Node: 2, At: at, RejoinAt: at * 3}},
		Read:    faults.ReadErrors{Prob: 0.05},
	}
	cfg.Trace = rec
	return cfg
}

func TestTraceDisabledResultUnchanged(t *testing.T) {
	// Fault-free.
	plain, err := Run(baseConfig(testEnvFS(t)))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	cfg := baseConfig(testEnvFS(t))
	cfg.Trace = rec
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing changed the fault-free result:\nplain  %+v\ntraced %+v", plain, traced)
	}
	if rec.Len() == 0 {
		t.Fatal("traced run recorded nothing")
	}

	// Faulted.
	plainF, err := Run(tracedFaultConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	tracedF, err := Run(tracedFaultConfig(t, trace.New()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainF, tracedF) {
		t.Errorf("tracing changed the faulted result:\nplain  %+v\ntraced %+v", plainF, tracedF)
	}
}

func testEnvFS(t *testing.T) *hdfs.FileSystem {
	fs, _ := testEnv(t)
	return fs
}

func TestTraceDeterministicJSONL(t *testing.T) {
	var blobs [2]bytes.Buffer
	for i := range blobs {
		rec := trace.New()
		if _, err := Run(tracedFaultConfig(t, rec)); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteJSONL(&blobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if blobs[0].Len() == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(blobs[0].Bytes(), blobs[1].Bytes()) {
		t.Fatal("same seed and config produced different JSONL traces")
	}
}

func TestTraceDecisionPerFilterTask(t *testing.T) {
	fs, _ := testEnv(t)
	rec := trace.New()
	cfg := baseConfig(fs)
	cfg.Picker = sched.NewDataNetPicker
	cfg.Trace = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decisions, starts := 0, 0
	for _, ev := range rec.Events() {
		switch ev.Type {
		case trace.EvDecision:
			decisions++
			d := ev.Decision
			if d == nil {
				t.Fatalf("decision event without payload: %+v", ev)
			}
			if d.Rule == "" || len(d.Candidates) == 0 || d.WBar <= 0 || d.Workload < 0 {
				t.Fatalf("incomplete audit: %+v", d)
			}
			if d.Local != ev.Local {
				t.Fatalf("locality mismatch: event=%v decision=%v", ev.Local, d.Local)
			}
			local := false
			for _, c := range d.Candidates {
				if c == ev.Node {
					local = true
				}
			}
			if local != d.Local {
				t.Fatalf("Local=%v but candidates=%v node=%d", d.Local, d.Candidates, ev.Node)
			}
		case trace.EvTaskStart:
			starts++
		}
	}
	// Fault-free: every filter task dispatched exactly once, one audit per
	// dispatch.
	want := res.LocalTasks + res.RemoteTasks
	if decisions != want || starts != want {
		t.Fatalf("decisions=%d starts=%d, want %d (one per filter task)", decisions, starts, want)
	}
}

func TestTraceFaultedRunEvents(t *testing.T) {
	rec := trace.New()
	cfg := tracedFaultConfig(t, rec)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := map[trace.EventType]int{}
	for _, ev := range rec.Events() {
		count[ev.Type]++
	}
	if count[trace.EvNodeCrash] == 0 || count[trace.EvNodeRejoin] == 0 {
		t.Fatalf("crash/rejoin not traced: %v", count)
	}
	if count[trace.EvTaskRetry] == 0 {
		t.Fatalf("retries not traced: %v", count)
	}
	if count[trace.EvFaultPlan] != 1 {
		t.Fatalf("fault-plan event count = %d", count[trace.EvFaultPlan])
	}
	if count[trace.EvPhase] < 4 {
		t.Fatalf("phase barriers = %d, want ≥4", count[trace.EvPhase])
	}

	// The snapshot derives fault counters from events alone; they must
	// agree with what the engine reports in Result.
	f := rec.Snapshot().Faults
	if f.NodeCrashes != res.NodeCrashes {
		t.Errorf("snapshot crashes %d != result %d", f.NodeCrashes, res.NodeCrashes)
	}
	if f.TasksRetried != res.TasksRetried {
		t.Errorf("snapshot retries %d != result %d", f.TasksRetried, res.TasksRetried)
	}
	if f.TransientErrors != res.TransientErrors {
		t.Errorf("snapshot transient %d != result %d", f.TransientErrors, res.TransientErrors)
	}
	if f.LostOutputs != res.LostOutputs {
		t.Errorf("snapshot lost outputs %d != result %d", f.LostOutputs, res.LostOutputs)
	}
	if f.SpeculativeWins != res.SpeculativeWins {
		t.Errorf("snapshot speculation %d != result %d", f.SpeculativeWins, res.SpeculativeWins)
	}
}

func TestTraceMetaFallbackEvent(t *testing.T) {
	fs, _ := testEnv(t)
	rec := trace.New()
	cfg := baseConfig(fs)
	cfg.Picker = sched.NewDataNetPicker
	cfg.WeightsErr = errFake
	cfg.Trace = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MetadataFallback {
		t.Fatal("fixture: fallback not taken")
	}
	seen := false
	for _, ev := range rec.Events() {
		if ev.Type == trace.EvMetaFallback {
			seen = true
		}
		if ev.Type == trace.EvDecision && ev.Decision != nil &&
			!strings.HasPrefix(ev.Decision.Rule, "fallback.") {
			t.Fatalf("degraded run audited rule %q", ev.Decision.Rule)
		}
	}
	if !seen {
		t.Fatal("metadata fallback not traced")
	}
	if rec.Snapshot().Faults.MetadataFallbacks != 1 {
		t.Fatal("snapshot missed the fallback")
	}
}

// A traced job that loses every replica of a needed block records one
// hdfs.block-lost event at the master's response instant — the moment
// the name-node's repair pass finds the block gone — and fails typed.
func TestFailNodesEmitsBlockLost(t *testing.T) {
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
	blocks, _ := fs.Blocks("log")
	holders := fs.Locations(blocks[0].ID)
	rec := trace.New()
	_, err = Run(Config{
		FS: fs, File: "log", App: apps.WordCount{}, Picker: sched.NewLocalityPicker,
		Detect: detect.Config{Mode: detect.Heartbeat, Interval: 0.02},
		Faults: &faults.Plan{Crashes: []faults.Crash{{Node: holders[0], At: 0}, {Node: holders[1], At: 0}}},
		Trace:  rec,
	})
	if !errors.Is(err, ErrDataLost) {
		t.Fatalf("err = %v, want ErrDataLost", err)
	}
	respAt := -1.0
	for _, ev := range rec.Events() {
		if ev.Type == trace.EvDetectLatency {
			respAt = ev.T
		}
	}
	var lost []trace.Event
	for _, ev := range rec.Events() {
		if ev.Type == trace.EvBlockLost {
			lost = append(lost, ev)
		}
	}
	if respAt <= 0 || len(lost) == 0 {
		t.Fatalf("response at %g, %d block-lost events", respAt, len(lost))
	}
	for _, ev := range lost {
		if ev.T != respAt || ev.Node != -1 {
			t.Errorf("block-lost %+v, want at the response instant %g", ev, respAt)
		}
	}
	if lost[0].Block != int(blocks[0].ID) {
		t.Errorf("first lost block %d, want %d", lost[0].Block, blocks[0].ID)
	}
}
