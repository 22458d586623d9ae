// Package obs is the wall-clock observability plane of the serving
// stack: request spans (trace.EvRequest events on the Unix clock) in a
// bounded lock-free ring with a top-K slow-request log, an HTTP
// middleware that stamps and propagates request IDs, the /admin/trace
// view of them through internal/trace's exporters, Prometheus
// text-format exposition of the live metrics, and structured log/slog
// setup for the serve and cluster daemons.
//
// Everything here is wall-clock and therefore off the determinism
// contract: the seed-pure loadgen digest and the chaos replay digests
// never read anything this package produces. Tracing defaults on (the
// ring is bounded and writes are two atomic ops); logging defaults off.
package obs

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"datanet/internal/trace"
)

// Header names of the request-correlation protocol. Loadgen stamps both;
// the middleware echoes the request ID on the response and generates one
// when the client sent none.
const (
	// RequestIDHeader carries the request-scoped correlation ID from the
	// client through the shard router to the owning node.
	RequestIDHeader = "X-Datanet-Request-Id"
	// AttemptHeader carries the 1-based attempt number of a retried
	// request, so the owning node's span records the retry count.
	AttemptHeader = "X-Datanet-Attempt"
)

// Defaults for the tracer's bounded state.
const (
	// DefaultRingSize is the span-ring capacity (rounded up to a power of
	// two; ~1 MB of spans at steady state).
	DefaultRingSize = 4096
	// DefaultSlowK is the slow-log depth.
	DefaultSlowK = 32
)

// Tracer owns one process's (or one cluster node's) span state: the
// bounded ring and the slow log. The zero Tracer is not usable; a nil
// *Tracer is a no-op recorder.
type Tracer struct {
	ring *Ring
	slow *SlowLog
}

// NewTracer builds a tracer with the given ring capacity and slow-log
// depth (zeros select the defaults).
func NewTracer(ringSize, slowK int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	if slowK <= 0 {
		slowK = DefaultSlowK
	}
	return &Tracer{ring: NewRing(ringSize), slow: NewSlowLog(slowK)}
}

// Record stores one finished span. Nil-safe: a nil tracer drops it.
func (t *Tracer) Record(sp *trace.Event) {
	if t == nil || sp == nil {
		return
	}
	t.ring.Put(sp)
	t.slow.Offer(sp)
}

// Spans snapshots the ring in sequence order (oldest retained first).
func (t *Tracer) Spans() []trace.Event {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot()
}

// Slowest returns the slow log, slowest first.
func (t *Tracer) Slowest() []trace.Event {
	if t == nil {
		return nil
	}
	return t.slow.Top()
}

// Request-ID generation: a per-process random prefix plus an atomic
// counter. Unique across the nodes of one cluster process (they share
// the counter) and almost surely across processes.
var (
	ridPrefix = rand.Uint32()
	ridSeq    atomic.Uint64
)

// NewRequestID mints a fresh request ID ("r-xxxxxxxx-n").
func NewRequestID() string {
	return fmt.Sprintf("r-%08x-%d", ridPrefix, ridSeq.Add(1))
}

// spanKey is the context key carrying the in-flight span.
type spanKey struct{}

// WithSpan returns ctx carrying sp, for handlers to annotate.
func WithSpan(ctx context.Context, sp *trace.Event) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFrom returns the in-flight span, or nil outside the middleware.
// Annotating the returned span is safe only before the handler returns.
func SpanFrom(ctx context.Context) *trace.Event {
	sp, _ := ctx.Value(spanKey{}).(*trace.Event)
	return sp
}
