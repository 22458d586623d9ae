package obs

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"datanet/internal/trace"
)

// statusWriter captures the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Middleware wraps next with the request-tracing protocol: it reuses or
// mints the X-Datanet-Request-Id header (echoed on the response so the
// client can correlate), opens a span — a trace.EvRequest event — carried
// down via the request context for handlers to annotate (route in
// Detail; epoch, cache, shard and stale in its Request payload),
// and records the finished span into tracer. When log is non-nil every
// request is also logged as one structured line keyed by request ID.
//
// node is the serving cluster node's ID, -1 in single-process mode.
func Middleware(tracer *Tracer, node int, log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		// The event and its payload share one allocation.
		span := &struct {
			ev  trace.Event
			req trace.Request
		}{
			ev:  trace.Event{Type: trace.EvRequest, Node: node, Block: -1},
			req: trace.Request{ID: id, Method: r.Method, Path: r.URL.Path, Shard: -1},
		}
		sp, req := &span.ev, &span.req
		sp.Request = req
		if a := r.Header.Get(AttemptHeader); a != "" {
			if n, err := strconv.Atoi(a); err == nil && n > 1 {
				sp.Count = n - 1
			}
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		sp.T = float64(start.UnixMicro()) / 1e6
		next.ServeHTTP(sw, r.WithContext(WithSpan(r.Context(), sp)))
		sp.Dur = time.Since(start).Seconds()
		req.Status = sw.status
		tracer.Record(sp)
		if log != nil {
			log.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("requestId", req.ID),
				slog.String("method", req.Method),
				slog.String("path", req.Path),
				slog.String("route", sp.Detail),
				slog.Int("node", sp.Node),
				slog.Int("shard", req.Shard),
				slog.Uint64("epoch", req.Epoch),
				slog.Int("status", req.Status),
				slog.String("cache", req.Cache),
				slog.Bool("stale", req.Stale),
				slog.Int("retries", sp.Count),
				slog.Float64("durMs", sp.Dur*1e3),
			)
		}
	})
}

// TraceHandler serves the tracer's state at /admin/trace:
//
//	GET /admin/trace                  spans as JSONL (ring order)
//	GET /admin/trace?format=chrome    Chrome trace-event JSON (Perfetto)
//	GET /admin/trace?slow=true        slow log only, slowest first
func TraceHandler(tracer *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		spans := tracer.Spans()
		if r.URL.Query().Get("slow") == "true" {
			spans = tracer.Slowest()
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
	})
}
