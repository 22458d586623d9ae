package obs

import (
	"encoding/json"
	"io"

	"datanet/internal/trace"
)

// Span exports, following the conventions of internal/trace/export.go:
// JSONL for grep/jq, Chrome trace-event JSON for Perfetto — except these
// spans carry wall-clock time, so the Chrome timestamps are real Unix
// microseconds and a viewer shows actual request latency.

// WriteSpansJSONL writes one JSON object per span.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteSpansChrome writes the spans as a Chrome trace-event file: one
// "X" (complete) event per request on a per-node track, reusing the
// trace package's event shapes so both timelines load into the same
// viewer.
func WriteSpansChrome(w io.Writer, spans []Span) error {
	b, err := json.Marshal(SpansChrome(spans))
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// SpansChrome converts spans into the Chrome trace-event wrapper. Tracks
// are cluster nodes; single-process spans (node -1) land on a "server"
// track after the last node.
func SpansChrome(spans []Span) trace.ChromeTraceFile {
	maxNode := -1
	for _, sp := range spans {
		maxNode = max(maxNode, sp.Node)
	}
	out, soloTid := trace.ChromeTracks("datanet serving plane", maxNode, "server")

	for _, sp := range spans {
		tid := sp.Node
		if tid < 0 {
			tid = soloTid
		}
		name := sp.Route
		if name == "" {
			name = sp.Method + " " + sp.Path
		}
		args := map[string]any{
			"requestId": sp.RequestID,
			"path":      sp.Path,
			"status":    sp.Status,
		}
		if sp.Shard >= 0 {
			args["shard"] = sp.Shard
		}
		if sp.Epoch > 0 {
			args["epoch"] = sp.Epoch
		}
		if sp.Cache != "" {
			args["cache"] = sp.Cache
		}
		if sp.Stale {
			args["stale"] = true
		}
		if sp.Retries > 0 {
			args["retries"] = sp.Retries
		}
		out.TraceEvents = append(out.TraceEvents, trace.ChromeEvent{
			Name: name, Ph: "X",
			Ts:  sp.StartUnixMs * 1e3, // ms → µs
			Dur: sp.DurMs * 1e3,
			Pid: trace.ChromePid, Tid: tid,
			Cat:  "request",
			Args: args,
		})
	}
	return out
}
