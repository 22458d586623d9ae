package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// Machine-readable exports. Both formats are pure functions of the event
// list, and the event list is a pure function of (config, seed), so
// exports are byte-identical across identical runs.

// WriteJSONL writes one JSON object per event, in append (simulation)
// order — the grep/jq-friendly format.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, ev := range r.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// ChromeEvent is one entry of the Chrome trace-event format ("JSON Array
// Format" with an object wrapper), the subset Perfetto and
// chrome://tracing consume: complete spans (ph "X" with ts+dur), instants
// (ph "i"), and metadata (ph "M") naming the tracks.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTraceFile is the wrapper object chrome://tracing loads.
type ChromeTraceFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromePid is the one "process" of every export: a simulated cluster or
// a serving plane.
const ChromePid = 1

// ChromeTracks starts a Chrome trace file: the process name, one "node-N"
// track for every node 0..maxNode, and after them one extra track for
// events scoped to no node, whose tid it returns.
func ChromeTracks(process string, maxNode int, extra string) (ChromeTraceFile, int) {
	out := ChromeTraceFile{DisplayTimeUnit: "ms"}
	meta := func(kind string, tid int, name string) {
		out.TraceEvents = append(out.TraceEvents, ChromeEvent{
			Name: kind, Ph: "M", Pid: ChromePid, Tid: tid, Args: map[string]any{"name": name},
		})
	}
	meta("process_name", 0, process)
	for tid := 0; tid <= maxNode; tid++ {
		meta("thread_name", tid, fmt.Sprintf("node-%d", tid))
	}
	meta("thread_name", maxNode+1, extra)
	return out, maxNode + 1
}

// ChromeTrace converts the timeline: one thread (track) per node, one
// "X" span per task attempt and per phase execution, instants for faults
// and barriers. Cluster-wide events land on a synthetic "job" track after
// the last node.
func (r *Recorder) ChromeTrace() ChromeTraceFile {
	events := r.Events()
	maxNode := -1
	for _, ev := range events {
		maxNode = max(maxNode, ev.Node)
	}
	out, jobTid := ChromeTracks("datanet simulated cluster", maxNode, "job")

	const usec = 1e6
	for _, ev := range events {
		tid := ev.Node
		if tid < 0 {
			tid = jobTid
		}
		ce := ChromeEvent{
			Name: chromeName(ev),
			Ts:   ev.T * usec,
			Pid:  ChromePid,
			Tid:  tid,
			Cat:  string(ev.Type),
			Args: chromeArgs(ev),
		}
		if ev.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = ev.Dur * usec
		} else {
			ce.Ph = "i"
			ce.Scope = "t"
			if ev.Node < 0 {
				ce.Scope = "g"
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	return out
}

// WriteChromeTrace writes the Chrome trace-event JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	b, err := json.Marshal(r.ChromeTrace())
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// OutputKind names one export of a traced run.
type OutputKind string

// The export kinds.
const (
	// OutJSONL is the timeline, one event per line (WriteJSONL).
	OutJSONL OutputKind = "jsonl"
	// OutChrome is the timeline as Chrome trace-event JSON
	// (WriteChromeTrace).
	OutChrome OutputKind = "chrome"
	// OutJSON is the run's document, its result beside the metrics
	// digest, which the caller renders.
	OutJSON OutputKind = "json"
)

// Output is one export to write: Path "-" means standard output.
type Output struct {
	Kind OutputKind
	Path string
}

// Outputs is the exports of one run; *Outputs is a repeatable flag.Value
// spelled KIND=FILE.
type Outputs []Output

// String spells the outputs as Set parses them, comma-separated.
func (o *Outputs) String() string {
	parts := make([]string, len(*o))
	for i, out := range *o {
		parts[i] = string(out.Kind) + "=" + out.Path
	}
	return strings.Join(parts, ",")
}

// Set adds one KIND=FILE output.
func (o *Outputs) Set(s string) error {
	kind, path, _ := strings.Cut(s, "=")
	if k := OutputKind(kind); path != "" && (k == OutJSONL || k == OutChrome || k == OutJSON) {
		*o = append(*o, Output{k, path})
		return nil
	}
	return fmt.Errorf("trace: bad output %q (want KIND=FILE, KIND jsonl, chrome or json, FILE - for stdout)", s)
}

// Stdout reports whether any output goes to standard output.
func (o Outputs) Stdout() bool {
	return slices.ContainsFunc(o, func(out Output) bool { return out.Path == "-" })
}

// chromeName compresses an event into a viewer-friendly span/instant name.
func chromeName(ev Event) string {
	switch ev.Type {
	case EvTaskFinish, EvTaskStart:
		kind := "local"
		if !ev.Local {
			kind = "remote"
		}
		return fmt.Sprintf("filter b%d a%d (%s)", ev.Block, ev.Attempt, kind)
	case EvTaskFail:
		return fmt.Sprintf("failed attempt b%d a%d", ev.Block, ev.Attempt)
	case EvAnalysisSpan:
		return "analysis"
	case EvAnalysisRecover:
		return "analysis recovery"
	case EvShuffleSpan:
		return fmt.Sprintf("shuffle r%d", ev.Attempt)
	case EvReduceSpan:
		return fmt.Sprintf("reduce r%d", ev.Attempt)
	case EvPhase:
		return "phase: " + ev.Detail
	case EvDecision:
		rule := ""
		if ev.Decision != nil {
			rule = " " + ev.Decision.Rule
		}
		return fmt.Sprintf("assign b%d%s", ev.Block, rule)
	default:
		return string(ev.Type)
	}
}

// chromeArgs surfaces the event payload in the viewer's detail pane.
func chromeArgs(ev Event) map[string]any {
	args := map[string]any{"seq": ev.Seq}
	if ev.Block >= 0 {
		args["block"] = ev.Block
	}
	if ev.Attempt > 0 {
		args["attempt"] = ev.Attempt
	}
	if ev.Bytes > 0 {
		args["bytes"] = ev.Bytes
	}
	if ev.Count > 0 {
		args["count"] = ev.Count
	}
	if ev.Detail != "" {
		args["detail"] = ev.Detail
	}
	if d := ev.Decision; d != nil {
		args["rule"] = d.Rule
		args["local"] = d.Local
		args["weight"] = d.Weight
		args["workload"] = d.Workload
		args["wbar"] = d.WBar
		args["candidates"] = fmt.Sprint(d.Candidates)
	}
	return args
}

// nodesOf returns the sorted node ids that appear in the trace.
func (r *Recorder) nodesOf() []int {
	seen := map[int]bool{}
	for _, ev := range r.Events() {
		if ev.Node >= 0 {
			seen[ev.Node] = true
		}
	}
	nodes := make([]int, 0, len(seen))
	for n := range seen {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes
}
