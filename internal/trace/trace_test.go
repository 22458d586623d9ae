package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"datanet/internal/metrics"
)

// sampleTrace builds a small but representative timeline: decisions, task
// spans on two nodes, a fault, a repair and phase barriers.
func sampleTrace() *Recorder {
	r := New()
	dec := At(0, EvDecision)
	dec.Node, dec.Block, dec.Attempt, dec.Local = 0, 7, 1, true
	dec.Decision = &Decision{Rule: "algo1.argmin-local", Candidates: []int{0, 2},
		Local: true, Weight: 100, Workload: 0, WBar: 50}
	r.Record(dec)
	r.Record(Event{T: 0, Type: EvTaskStart, Node: 0, Block: 7, Attempt: 1, Local: true})
	r.Record(Event{T: 0, Type: EvTaskFinish, Node: 0, Block: 7, Attempt: 1,
		Dur: 1.5, Bytes: 100, Local: true})
	r.Record(Event{T: 0.2, Type: EvTaskFail, Node: 1, Block: 9, Attempt: 1,
		Dur: 0.5, Detail: "read-error"})
	retry := At(0.7, EvTaskRetry)
	retry.Block, retry.Attempt, retry.Detail = 9, 1, "read-error"
	r.Record(retry)
	crash := At(1.0, EvNodeCrash)
	crash.Node = 1
	r.Record(crash)
	rep := At(1.0, EvRereplicate)
	rep.Count, rep.Detail = 3, "crash-repair"
	r.Record(rep)
	r.Record(Event{T: 2.0, Type: EvAnalysisSpan, Node: 0, Block: -1, Dur: 1.0})
	phase := At(2.0, EvPhase)
	phase.Detail = "filter-end"
	r.Record(phase)
	return r
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	r.Record(At(1, EvPhase)) // must not panic
	if r.Len() != 0 || r.Events() != nil {
		t.Fatalf("nil recorder holds events: len=%d", r.Len())
	}
	if s := r.Snapshot(); s == nil || len(s.Counters) != 0 {
		t.Fatalf("nil recorder snapshot = %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL: err=%v len=%d", err, buf.Len())
	}
}

func TestRecordAssignsSequence(t *testing.T) {
	r := sampleTrace()
	for i, ev := range r.Events() {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if n := r.Len(); n != 9 {
		t.Fatalf("sample trace has %d events, want 9", n)
	}
}

func TestJSONLRoundTripsAndIsDeterministic(t *testing.T) {
	r := sampleTrace()
	var a, b bytes.Buffer
	if err := r.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same trace differ")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != r.Len() {
		t.Fatalf("%d lines for %d events", len(lines), r.Len())
	}
	var first Event
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Type != EvDecision || first.Decision == nil ||
		first.Decision.Rule != "algo1.argmin-local" || first.Decision.WBar != 50 {
		t.Fatalf("decision did not round-trip: %+v", first)
	}
}

func TestChromeTraceWellFormed(t *testing.T) {
	r := sampleTrace()
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// Byte for byte the export `analyze -out chrome=` has always written.
	if want, err := os.ReadFile("testdata/chrome.golden"); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace differs from testdata/chrome.golden (%v):\n%s", err, buf.Bytes())
	}
	var file ChromeTraceFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	spans, instants, meta := 0, 0, 0
	threadNames := map[int]string{}
	for _, ce := range file.TraceEvents {
		if ce.Pid != ChromePid {
			t.Fatalf("event %q has pid %d", ce.Name, ce.Pid)
		}
		switch ce.Ph {
		case "M":
			meta++
			if ce.Name == "thread_name" {
				threadNames[ce.Tid], _ = ce.Args["name"].(string)
			}
		case "X":
			spans++
			if ce.Dur <= 0 {
				t.Fatalf("span %q has dur %v", ce.Name, ce.Dur)
			}
			if ce.Ts < 0 {
				t.Fatalf("span %q has ts %v", ce.Name, ce.Ts)
			}
		case "i":
			instants++
			if ce.Scope != "t" && ce.Scope != "g" {
				t.Fatalf("instant %q has scope %q", ce.Name, ce.Scope)
			}
		default:
			t.Fatalf("unexpected ph %q", ce.Ph)
		}
	}
	// sample: finish, fail, analysis spans; decision/start/retry/crash/
	// rereplicate/phase instants; ≥2 node tracks + job track + process name.
	if spans != 3 || instants != 6 || meta < 4 {
		t.Fatalf("spans=%d instants=%d meta=%d", spans, instants, meta)
	}
	if threadNames[0] != "node-0" || threadNames[1] != "node-1" {
		t.Fatalf("thread names = %v", threadNames)
	}
	// Durations are µs: the 1.5 s finish span must be 1.5e6.
	found := false
	for _, ce := range file.TraceEvents {
		if ce.Ph == "X" && ce.Dur == 1.5e6 {
			found = true
		}
	}
	if !found {
		t.Fatal("1.5 s span not exported as 1.5e6 µs")
	}
}

func TestSnapshotDigestsEvents(t *testing.T) {
	s := sampleTrace().Snapshot()
	if s.Counters["events."+string(EvDecision)] != 1 {
		t.Fatalf("decision counter = %d", s.Counters["events.sched.decision"])
	}
	if s.Faults.NodeCrashes != 1 || s.Faults.TransientErrors != 1 ||
		s.Faults.TasksRetried != 1 || s.Faults.ReplicasRepaired != 3 {
		t.Fatalf("fault counters = %+v", s.Faults)
	}
	if got := s.Gauges["sched.locality-ratio"]; got != 1 {
		t.Fatalf("locality ratio = %v", got)
	}
	if got := s.Gauges["phase.filter-end"]; got != 2 {
		t.Fatalf("filter-end gauge = %v", got)
	}
	if s.Histograms["task.duration"].Count() != 1 ||
		s.Histograms["task.duration"].Max() != 1.5 {
		t.Fatalf("task.duration = %+v", s.Histograms["task.duration"].Summary())
	}
	// Node 0: 1.5 finish + 1.0 analysis; node 1: 0.5 failed attempt.
	busy := s.Histograms["node.busy"]
	if busy.Count() != 2 || busy.Max() != 2.5 || busy.Min() != 0.5 {
		t.Fatalf("node.busy = %+v", busy.Summary())
	}
	// Workload deviation: |0-50|/50 = 1.
	if dev := s.Histograms["sched.workload-dev"]; dev.Count() != 1 || dev.Max() != 1 {
		t.Fatalf("workload-dev = %+v", dev.Summary())
	}
}

// The trace's Gantt chart has a row per node, a span per span event in
// its attempt's fill and hover text, and a mark per crash and barrier.
func TestGanttChart(t *testing.T) {
	g := sampleTrace().Gantt()
	if want := []string{"node 0", "node 1"}; !slices.Equal(g.Rows, want) {
		t.Fatalf("rows = %v, want %v", g.Rows, want)
	}
	want := []metrics.Span{
		{Row: 0, Start: 0, Dur: 1.5, Fill: "#1f6fb2", Title: "filter block 7 attempt 1 (local) 0.00s–1.50s"},
		{Row: 1, Start: 0.2, Dur: 0.5, Fill: "#e8a33d", Title: "failed attempt block 9 attempt 1 (read-error)"},
		{Row: 0, Start: 2, Dur: 1, Fill: "#3a7d44", Title: "analysis.span 2.00s–3.00s"},
	}
	if !slices.Equal(g.Spans, want) {
		t.Fatalf("spans = %+v\nwant %+v", g.Spans, want)
	}
	marks := []metrics.Mark{
		{At: 1, Stroke: "#c00", Dash: "none", Title: "crash node 1 @ 1.00s"},
		{At: 2, Stroke: "#999", Dash: "1,3", Title: "filter-end @ 2.00s"},
	}
	if !slices.Equal(g.Marks, marks) {
		t.Fatalf("marks = %+v\nwant %+v", g.Marks, marks)
	}
	if g.Legend[0].Label != "filter (local)" || g.Legend[0].Color != want[0].Fill {
		t.Fatalf("legend starts with %+v", g.Legend[0])
	}
	if empty := New().Gantt(); len(empty.Rows)+len(empty.Spans)+len(empty.Marks) != 0 {
		t.Fatalf("empty trace charts %+v", empty)
	}
}
