package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"datanet/internal/metrics"
)

// Machine-readable exports of either clock. Both formats are pure
// functions of the event list, and a simulated event list is a pure
// function of (config, seed), so simulated exports are byte-identical
// across identical runs.

// WriteJSONL writes one JSON object per event, in the given order — the
// grep/jq-friendly format.
func WriteJSONL(w io.Writer, events []Event) error {
	for i := range events {
		b, err := json.Marshal(&events[i])
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

// WriteJSONL writes the timeline in append (simulation) order.
func (r *Recorder) WriteJSONL(w io.Writer) error { return WriteJSONL(w, r.Events()) }

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

// Chrome converts a timeline into one "process" of the given name: one
// "node-N" thread (track) per node, one "X" span per event with a
// duration (task attempt, phase execution, request) and an instant for
// every other. Events scoped to no node land on the extra track after
// the last node.
func Chrome(events []Event, process, extra string) ChromeTraceFile {
	const usec = 1e6
	maxNode := -1
	for _, ev := range events {
		maxNode = max(maxNode, ev.Node)
	}
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
	extraTid := maxNode + 1
	meta("thread_name", extraTid, extra)

	for _, ev := range events {
		tid := ev.Node
		if tid < 0 {
			tid = extraTid
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

// WriteChrome writes Chrome(events, process, extra) as JSON.
func WriteChrome(w io.Writer, events []Event, process, extra string) error {
	return writeJSON(w, Chrome(events, process, extra))
}

func writeJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ChromeTrace converts the simulated timeline; cluster-wide events land
// on a synthetic "job" track after the last node.
func (r *Recorder) ChromeTrace() ChromeTraceFile {
	return Chrome(r.Events(), "datanet simulated cluster", "job")
}

// WriteChromeTrace writes the Chrome trace-event JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return writeJSON(w, r.ChromeTrace())
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
	case EvRequest:
		if ev.Detail != "" || ev.Request == nil {
			return ev.Detail
		}
		return ev.Request.Method + " " + ev.Request.Path
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
	if q := ev.Request; q != nil {
		args["requestId"] = q.ID
		args["path"] = q.Path
		args["status"] = q.Status
		if q.Shard >= 0 {
			args["shard"] = q.Shard
		}
		if q.Epoch > 0 {
			args["epoch"] = q.Epoch
		}
		if q.Cache != "" {
			args["cache"] = q.Cache
		}
		if q.Stale {
			args["stale"] = true
		}
		if ev.Count > 0 {
			args["retries"] = ev.Count
		}
		return args
	}
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

// ganttLegend is the Gantt chart's legend, one entry per span kind.
var ganttLegend = []metrics.Swatch{
	{Label: "filter (local)", Color: "#1f6fb2"}, {Label: "filter (remote)", Color: "#d1495b"},
	{Label: "failed attempt", Color: "#e8a33d"}, {Label: "analysis", Color: "#3a7d44"},
	{Label: "recovery", Color: "#7bbf8a"}, {Label: "shuffle", Color: "#6b5b95"}, {Label: "reduce", Color: "#8a6d3b"},
}

// Gantt maps the trace onto a Gantt chart, the HTML report's per-run
// timeline: one row per node, a span per filter attempt (local, remote or
// failed), analysis, recovery, shuffle and reduce, and a mark per crash,
// rejoin and phase barrier. Perfetto remains the interactive option.
func (r *Recorder) Gantt() *metrics.Gantt {
	g := &metrics.Gantt{Caption: "Per-node task spans (x: simulated seconds)", Legend: ganttLegend}
	rowOf := map[int]int{}
	for i, n := range r.nodesOf() {
		rowOf[n] = i
		g.Rows = append(g.Rows, fmt.Sprintf("node %d", n))
	}
	for _, ev := range r.Events() {
		kind, title, where := -1, "", "local" // kind indexes ganttLegend
		switch ev.Type {
		case EvNodeCrash:
			g.Marks = append(g.Marks, metrics.Mark{At: ev.T, Stroke: "#c00", Dash: "none",
				Title: fmt.Sprintf("crash node %d @ %.2fs", ev.Node, ev.T)})
		case EvNodeRejoin:
			g.Marks = append(g.Marks, metrics.Mark{At: ev.T, Stroke: "#3a7d44", Dash: "3,2",
				Title: fmt.Sprintf("rejoin node %d @ %.2fs", ev.Node, ev.T)})
		case EvPhase:
			g.Marks = append(g.Marks, metrics.Mark{At: ev.T, Stroke: "#999", Dash: "1,3",
				Title: fmt.Sprintf("%s @ %.2fs", ev.Detail, ev.T)})
		case EvTaskFinish:
			kind = 0
			if !ev.Local {
				kind, where = 1, "remote"
			}
			title = fmt.Sprintf("filter block %d attempt %d (%s) %.2fs–%.2fs", ev.Block, ev.Attempt, where, ev.T, ev.T+ev.Dur)
		case EvTaskFail:
			kind, title = 2, fmt.Sprintf("failed attempt block %d attempt %d (%s)", ev.Block, ev.Attempt, ev.Detail)
		case EvAnalysisSpan:
			kind = 3
		case EvAnalysisRecover:
			kind, title = 4, fmt.Sprintf("analysis recovery (%s)", ev.Detail)
		case EvShuffleSpan:
			kind = 5
		case EvReduceSpan:
			kind = 6
		}
		if kind < 0 || ev.Dur <= 0 || ev.Node < 0 {
			continue
		}
		if title == "" {
			title = fmt.Sprintf("%s %.2fs–%.2fs", ev.Type, ev.T, ev.T+ev.Dur)
		}
		g.Spans = append(g.Spans, metrics.Span{Row: rowOf[ev.Node], Start: ev.T, Dur: ev.Dur,
			Fill: ganttLegend[kind].Color, Title: title})
	}
	return g
}
