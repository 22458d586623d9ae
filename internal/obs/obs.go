// Package obs is the wall-clock observability plane of the serving
// stack: request spans (trace.EvRequest events on the Unix clock) in a
// bounded lock-free ring with a top-K slow-request log, the
// request-correlation headers and ID minting, the /admin/trace view of
// the spans through internal/trace's exporters, Prometheus
// text-format exposition of the live metrics, and structured log/slog
// setup for the serve and cluster daemons.
//
// Everything here is wall-clock and therefore off the determinism
// contract: the seed-pure loadgen digest and the chaos replay digests
// never read anything this package produces. Tracing defaults on (the
// ring is bounded and writes are two atomic ops); logging defaults off.
package obs

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"

	"datanet/internal/trace"
)

// Header names of the request-correlation protocol. Loadgen stamps both;
// the serving node echoes the request ID on the response and mints one
// when the client sent none.
const (
	// RequestIDHeader carries the request-scoped correlation ID from the
	// client through the shard router to the owning node.
	RequestIDHeader = "X-Datanet-Request-Id"
	// AttemptHeader carries the 1-based attempt number of a retried
	// request, so the owning node's span records the retry count.
	AttemptHeader = "X-Datanet-Attempt"
)

// The tracer's bounded state.
const (
	// RingSize is the span-ring capacity (a power of two; ~1 MB of spans
	// at steady state).
	RingSize = 4096
	// SlowK is the slow-log depth.
	SlowK = 32
)

// Tracer owns one serving node's span state: the bounded ring and the
// slow log. The zero Tracer is not usable.
type Tracer struct {
	ring *Ring
	slow *SlowLog
}

// NewTracer builds a tracer of RingSize spans and a SlowK-deep slow log.
func NewTracer() *Tracer {
	return &Tracer{ring: NewRing(RingSize), slow: NewSlowLog(SlowK)}
}

// Record stores one finished span.
func (t *Tracer) Record(sp *trace.Event) {
	t.ring.Put(sp)
	t.slow.Offer(sp)
}

// Spans snapshots the ring in sequence order (oldest retained first).
func (t *Tracer) Spans() []trace.Event {
	return t.ring.Snapshot()
}

// Slowest returns the slow log, slowest first.
func (t *Tracer) Slowest() []trace.Event {
	return t.slow.Top()
}

// Request-ID generation: a per-process random prefix plus an atomic
// counter. Unique across the nodes of one cluster process (they share
// the counter) and almost surely across processes.
var (
	ridPrefix = fmt.Sprintf("r-%08x-", rand.Uint32())
	ridSeq    atomic.Uint64
)

// NewRequestID mints a fresh request ID ("r-xxxxxxxx-n").
func NewRequestID() string {
	return ridPrefix + strconv.FormatUint(ridSeq.Add(1), 10)
}

// ServeHTTP serves the tracer's state at /admin/trace:
//
//	GET /admin/trace                  spans as JSONL (ring order)
//	GET /admin/trace?format=chrome    Chrome trace-event JSON (Perfetto)
//	GET /admin/trace?slow=true        slow log only, slowest first
func (t *Tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	spans := t.Spans()
	if r.URL.Query().Get("slow") == "true" {
		spans = t.Slowest()
	}
	switch f := r.URL.Query().Get("format"); f {
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		trace.WriteJSONL(w, spans)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		trace.WriteChrome(w, spans, "datanet serving plane", "server")
	default:
		http.Error(w, `unknown format (want "jsonl" or "chrome")`, http.StatusBadRequest)
	}
}
