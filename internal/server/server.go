package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"datanet/internal/elasticmap"
	"datanet/internal/metrics"
	"datanet/internal/obs"
	"datanet/internal/trace"
)

// MaxBodyBytes bounds request bodies (encoded arrays, plan requests): a
// malformed or hostile payload is rejected before it can balloon memory.
const MaxBodyBytes = 64 << 20

// endpointMetrics counts one route's traffic: its latency histogram's
// count is the route's request count.
type endpointMetrics struct {
	errors  atomic.Uint64
	latency metrics.Latency
}

// StaleHeader marks a read served below what a client may already have
// been acked: real data, but older than something a client has seen.
const StaleHeader = "X-Datanet-Stale"

// Catalog is what a Server answers from: a *Store in a single process, or
// one cluster node's view of its store behind the leadership gate.
type Catalog interface {
	// Lookup resolves name's current snapshot; stale flags an epoch below
	// one a client may already have been acked. An absent name's error
	// wraps ErrUnknownArray.
	Lookup(name string) (sn *Snapshot, stale bool, err error)
	// List returns the snapshots the catalog serves, sorted by name.
	List() []*Snapshot
	// Write publishes the array next forms from name's current snapshot
	// (nil when absent); AppendTo and Replace build next.
	Write(name string, next func(prev *Snapshot) (*elasticmap.Array, error)) (*Snapshot, error)
	// Ready reports nil once the catalog can serve.
	Ready() error
	// Node is the serving cluster node's ID, -1 in a single process.
	Node() int
	// Shard is the catalog shard holding name, -1 in a single process.
	Shard(name string) int
}

// Server is the HTTP metadata service over a Catalog, and the one
// per-request wrapper of a serving node: every request it answers is a
// span in its tracer.
type Server struct {
	cat    Catalog
	mux    *http.ServeMux
	tracer *obs.Tracer
	// Logger, when non-nil, writes one structured line per span. Set it
	// before serving; nil (no logging) is the default.
	Logger *slog.Logger
	// byEndpoint maps route label → metrics; fixed at construction so the
	// hot path never locks a map.
	byEndpoint map[string]*endpointMetrics
	cacheHits  atomic.Uint64
	cacheMiss  atomic.Uint64
	// draining refuses new writes while Drain waits out in-flight ones.
	draining atomic.Bool
	writers  sync.WaitGroup
}

// endpoint labels, in /v1/metrics order.
var endpointLabels = []string{
	"append", "arrays", "distribution", "estimate", "healthz", "info", "plan", "put", "readyz", "top",
}

// New builds the service over cat.
func New(cat Catalog) *Server {
	s := &Server{
		cat:        cat,
		mux:        http.NewServeMux(),
		tracer:     obs.NewTracer(),
		byEndpoint: make(map[string]*endpointMetrics, len(endpointLabels)),
	}
	for _, l := range endpointLabels {
		s.byEndpoint[l] = &endpointMetrics{}
	}
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /v1/arrays", s.instrument("arrays", s.handleArrays))
	s.mux.HandleFunc("GET /v1/arrays/{name}", s.instrument("info", s.handleInfo))
	s.mux.HandleFunc("GET /v1/arrays/{name}/estimate", s.instrument("estimate", s.handleEstimate))
	s.mux.HandleFunc("GET /v1/arrays/{name}/distribution", s.instrument("distribution", s.handleDistribution))
	s.mux.HandleFunc("GET /v1/arrays/{name}/top", s.instrument("top", s.handleTop))
	s.mux.HandleFunc("POST /v1/arrays/{name}/plan", s.instrument("plan", s.handlePlan))
	s.mux.HandleFunc("POST /v1/arrays/{name}/append", s.instrument("append", s.write(AppendTo)))
	s.mux.HandleFunc("PUT /v1/arrays/{name}", s.instrument("put", s.write(Replace)))
	s.mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.DumpMetrics())
	})
	s.mux.HandleFunc("GET /metrics", s.handleProm)
	return s
}

// span is one request in flight: its trace event, the event's Request
// payload and the writer that captures the answered status, in one
// allocation. Route handlers get it as an argument and annotate it.
type span struct {
	http.ResponseWriter
	status int
	// em is the matched route's metrics, nil for an uncounted request.
	em  *endpointMetrics
	ev  trace.Event
	req trace.Request
}

func (sp *span) WriteHeader(code int) {
	sp.status = code
	sp.ResponseWriter.WriteHeader(code)
}

// ServeHTTP answers the node-local admin routes unspanned, so a scrape
// never perturbs what it scrapes, and every other request as a span: it
// echoes or mints the request ID, reads the attempt header, dispatches,
// and records the one measured duration in the tracer and in the matched
// route's metrics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/admin/trace":
		s.tracer.ServeHTTP(w, r)
		return
	case "/admin/metrics":
		w.Header().Set("Content-Type", obs.PromContentType)
		w.Write(RenderProm(s.DumpMetrics(), false))
		return
	}
	id := r.Header.Get(obs.RequestIDHeader)
	if id == "" {
		id = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, id)
	sp := &span{
		ResponseWriter: w,
		status:         http.StatusOK,
		ev:             trace.Event{Type: trace.EvRequest, Node: s.cat.Node(), Block: -1},
		req:            trace.Request{ID: id, Method: r.Method, Path: r.URL.Path, Shard: -1},
	}
	sp.ev.Request = &sp.req
	if a := r.Header.Get(obs.AttemptHeader); a != "" {
		if n, err := strconv.Atoi(a); err == nil && n > 1 {
			sp.ev.Count = n - 1
		}
	}
	start := time.Now()
	sp.ev.T = float64(start.UnixMicro()) / 1e6
	s.mux.ServeHTTP(sp, r)
	sp.ev.Dur = time.Since(start).Seconds()
	sp.req.Status = sp.status
	// The ring keeps the span for thousands of requests more: let go of
	// the writer, which holds the request and its response.
	sp.ResponseWriter = nil
	if em := sp.em; em != nil {
		if sp.status >= http.StatusBadRequest {
			em.errors.Add(1)
		}
		em.latency.Observe(sp.ev.Dur)
	}
	s.tracer.Record(&sp.ev)
	if s.Logger != nil {
		s.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("requestId", sp.req.ID),
			slog.String("method", sp.req.Method),
			slog.String("path", sp.req.Path),
			slog.String("route", sp.ev.Detail),
			slog.Int("node", sp.ev.Node),
			slog.Int("shard", sp.req.Shard),
			slog.Uint64("epoch", sp.req.Epoch),
			slog.Int("status", sp.req.Status),
			slog.String("cache", sp.req.Cache),
			slog.Bool("stale", sp.req.Stale),
			slog.Int("retries", sp.ev.Count),
			slog.Float64("durMs", sp.ev.Dur*1e3),
		)
	}
}

// httpError carries a status code — and, for typed 503s, a
// machine-readable kind plus a retry hint — through handler returns.
type httpError struct {
	code int
	msg  string
	// kind is the machine-readable error class ("not_leader", "draining",
	// "not_ready", …); empty for plain 4xx validation errors.
	kind string
	// retryAfter is the client backoff hint in seconds (Retry-After
	// header + retryAfterMs body field); 0 omits both.
	retryAfter float64
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// Unavailable builds a typed 503 with a retry hint: the not-leader /
// mid-failover / draining responses the cluster layer returns so clients
// can tell a retryable routing miss from a real failure.
func Unavailable(kind string, retryAfter float64, format string, args ...any) error {
	return &httpError{
		code: http.StatusServiceUnavailable, msg: fmt.Sprintf(format, args...),
		kind: kind, retryAfter: retryAfter,
	}
}

// ErrorBody is the JSON shape of every error response. Kind and
// RetryAfterMs appear only on typed unavailability errors.
type ErrorBody struct {
	Error        string `json:"error"`
	Kind         string `json:"kind,omitempty"`
	RetryAfterMs int64  `json:"retryAfterMs,omitempty"`
}

// WriteError renders err as its JSON body (with Retry-After header when
// the error carries a hint). Exported for the cluster layer's admin
// routes, which sit beside this mux but speak the same error shape.
func WriteError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	body := ErrorBody{Error: err.Error()}
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
		body.Kind = he.kind
		if he.retryAfter > 0 {
			body.RetryAfterMs = int64(he.retryAfter * 1000)
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(he.retryAfter))))
		}
	}
	WriteJSON(w, code, body)
}

// instrument makes h the counted route label: it names the span's route
// and the array's shard, hands the span to h, and renders h's returned
// error as JSON with a 4xx/5xx status. Handlers return pre-marshaled
// bodies so cached responses skip encoding.
func (s *Server) instrument(label string, h func(sp *span, r *http.Request) ([]byte, error)) http.HandlerFunc {
	em := s.byEndpoint[label]
	return func(w http.ResponseWriter, r *http.Request) {
		sp := w.(*span) // the mux is only reached through ServeHTTP
		sp.em, sp.ev.Detail = em, label
		if name := r.PathValue("name"); name != "" {
			sp.req.Shard = s.cat.Shard(name)
		}
		body, err := h(sp, r)
		if err != nil {
			WriteError(sp, err)
			return
		}
		sp.Header().Set("Content-Type", "application/json")
		sp.WriteHeader(http.StatusOK)
		sp.Write(body)
	}
}

// WriteJSON writes v as a JSON body with status code. Exported for the
// cluster layer's admin routes.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(marshal(v))
}

// marshal renders v as a newline-terminated JSON body. Marshal of the
// fixed response shapes cannot fail; guard anyway without escalating to a
// 5xx the fuzzer would flag.
func marshal(v any) []byte {
	blob, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"error":"encoding failure"}`)
	}
	return append(blob, '\n')
}

// snapshot resolves the {name} path wildcard with one catalog lookup,
// flags a stale answer on the response, and stamps the served epoch and
// the stale flag onto the request's span.
func (s *Server) snapshot(sp *span, r *http.Request) (*Snapshot, error) {
	name := r.PathValue("name")
	sn, stale, err := s.cat.Lookup(name)
	if err != nil {
		return nil, catalogError(name, err)
	}
	if stale {
		sp.Header().Set(StaleHeader, "true")
	}
	sp.req.Epoch, sp.req.Stale = sn.Epoch, stale
	return sn, nil
}

// catalogError renders a catalog's refusal: an unknown array is a 404,
// and anything else keeps its own shape (a typed 503 stays one).
func catalogError(name string, err error) error {
	if errors.Is(err, ErrUnknownArray) {
		return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("unknown array %q", name)}
	}
	return err
}

// cached answers from the snapshot's per-epoch cache, counting hits and
// misses on the server and on the request's span. A failed compute is
// neither stored nor counted.
func (s *Server) cached(sp *span, sn *Snapshot, key string, compute func() ([]byte, error)) ([]byte, error) {
	body, hit, err := sn.Cached(key, compute)
	switch {
	case err != nil:
		return nil, err
	case hit:
		s.cacheHits.Add(1)
		sp.req.Cache = "hit"
	default:
		s.cacheMiss.Add(1)
		sp.req.Cache = "miss"
	}
	return body, nil
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// Orchestrators restart on healthz failure; they route on readyz.
func (s *Server) handleHealthz(*span, *http.Request) ([]byte, error) {
	return marshal(map[string]bool{"ok": true}), nil
}

// handleReadyz is readiness: 503 until the catalog's Ready passes (a
// store holds an array; a cluster node is a registered, live member).
// Draining flips it back to 503 so load balancers stop sending traffic
// before shutdown completes.
func (s *Server) handleReadyz(*span, *http.Request) ([]byte, error) {
	if s.draining.Load() {
		return nil, Unavailable("draining", 1, "shutting down")
	}
	if err := s.cat.Ready(); err != nil {
		return nil, Unavailable("not_ready", 1, "not ready: %v", err)
	}
	return marshal(map[string]bool{"ready": true}), nil
}

// beginWrite gates one mutating request: refused while draining, counted
// otherwise so Drain can wait for it. endWrite is its release.
func (s *Server) beginWrite() error {
	if s.draining.Load() {
		return Unavailable("draining", 1, "shutting down")
	}
	s.writers.Add(1)
	// Re-check after joining the group: Drain may have flipped the flag
	// between our check and Add, and it must not wait on us forever while
	// we proceed to mutate a catalog being torn down.
	if s.draining.Load() {
		s.writers.Done()
		return Unavailable("draining", 1, "shutting down")
	}
	return nil
}

// endWrite releases a beginWrite.
func (s *Server) endWrite() { s.writers.Done() }

// Drain stops admitting appends/puts and blocks until every in-flight one
// has published its snapshot, or ctx expires. Call before releasing the
// store on shutdown: a drained server's catalog pointer is quiescent.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.writers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

// arrayInfo is the catalog row of one array.
type arrayInfo struct {
	Name         string  `json:"name"`
	Epoch        uint64  `json:"epoch"`
	Blocks       int     `json:"blocks"`
	DominantSubs int     `json:"dominantSubs"`
	RawBytes     int64   `json:"rawBytes"`
	MemoryBytes  int64   `json:"memoryBytes"`
	MeanAlpha    float64 `json:"meanAlpha"`
}

func infoOf(sn *Snapshot) arrayInfo {
	return arrayInfo{
		Name:         sn.Name,
		Epoch:        sn.Epoch,
		Blocks:       sn.Arr.Len(),
		DominantSubs: sn.Idx.DominantSubs(),
		RawBytes:     sn.Arr.RawBytes(),
		MemoryBytes:  sn.Arr.MemoryBits() / 8,
		MeanAlpha:    sn.Arr.MeanAlpha(),
	}
}

// arraysResponse, topResponse and writeResponse declare their JSON fields
// in sorted key order, the order encoding/json gives a map's keys, so each
// body keeps the bytes of its map[string]any rendering, as the appended
// /distribution body does (TestResponseBytesMatchMapShapes).

// arraysResponse is the catalog listing.
type arraysResponse struct {
	Arrays []arrayInfo `json:"arrays"`
}

func (s *Server) handleArrays(*span, *http.Request) ([]byte, error) {
	list := s.cat.List()
	infos := make([]arrayInfo, len(list))
	for i, sn := range list {
		infos[i] = infoOf(sn)
	}
	return marshal(arraysResponse{Arrays: infos}), nil
}

func (s *Server) handleInfo(sp *span, r *http.Request) ([]byte, error) {
	sn, err := s.snapshot(sp, r)
	if err != nil {
		return nil, err
	}
	return marshal(infoOf(sn)), nil
}

// estimateResponse answers Eq. 6 for one sub-dataset.
type estimateResponse struct {
	Epoch         uint64 `json:"epoch"`
	Sub           string `json:"sub"`
	Estimate      int64  `json:"estimate"`
	HashedBlocks  int    `json:"hashedBlocks"`
	BloomedBlocks int    `json:"bloomedBlocks"`
}

func (s *Server) handleEstimate(sp *span, r *http.Request) ([]byte, error) {
	sn, err := s.snapshot(sp, r)
	if err != nil {
		return nil, err
	}
	sub := r.URL.Query().Get("sub")
	if sub == "" {
		return nil, badRequest("missing sub parameter")
	}
	return s.cached(sp, sn, "estimate\x00"+sub, func() ([]byte, error) {
		total, hashed, bloomed := sn.Arr.EstimateDetailed(sub)
		return marshal(estimateResponse{
			Epoch: sn.Epoch, Sub: sub,
			Estimate: total, HashedBlocks: hashed, BloomedBlocks: bloomed,
		}), nil
	})
}

func (s *Server) handleDistribution(sp *span, r *http.Request) ([]byte, error) {
	sn, err := s.snapshot(sp, r)
	if err != nil {
		return nil, err
	}
	sub := r.URL.Query().Get("sub")
	if sub == "" {
		return nil, badRequest("missing sub parameter")
	}
	return s.cached(sp, sn, "distribution\x00"+sub, func() ([]byte, error) {
		dist := sn.Arr.Distribution(sub)
		return appendDistribution(make([]byte, 0, 64+len(sub)+48*len(dist)), dist, sn.Epoch, sub), nil
	})
}

// topEntry is one row of topResponse.
type topEntry struct {
	Bytes int64  `json:"bytes"`
	Sub   string `json:"sub"`
}

// topResponse lists the largest sub-datasets by dominant volume.
type topResponse struct {
	Entries []topEntry `json:"entries"`
	Epoch   uint64     `json:"epoch"`
}

func (s *Server) handleTop(sp *span, r *http.Request) ([]byte, error) {
	sn, err := s.snapshot(sp, r)
	if err != nil {
		return nil, err
	}
	n := 10
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			return nil, badRequest("bad n parameter %q", q)
		}
		n = v
	}
	return s.cached(sp, sn, "top\x00"+strconv.Itoa(n), func() ([]byte, error) {
		top := sn.Idx.Top(n)
		entries := make([]topEntry, len(top))
		for i, e := range top {
			entries[i] = topEntry{Bytes: e.Bytes, Sub: e.Sub}
		}
		return marshal(topResponse{Entries: entries, Epoch: sn.Epoch}), nil
	})
}

func (s *Server) handlePlan(sp *span, r *http.Request) ([]byte, error) {
	sn, err := s.snapshot(sp, r)
	if err != nil {
		return nil, err
	}
	blob, err := readBody(r)
	if err != nil {
		return nil, err
	}
	req, err := decodePlanRequest(blob)
	if err != nil {
		return nil, badRequest("bad plan request: %v", err)
	}
	if err := req.validate(sn.Arr.Len()); err != nil {
		return nil, badRequest("bad plan request: %v", err)
	}
	var key [128]byte
	return s.cached(sp, sn, string(req.appendKey(key[:0])), func() ([]byte, error) {
		resp, err := buildPlan(sn, &req)
		if err != nil {
			return nil, badRequest("plan: %v", err)
		}
		return appendPlan(make([]byte, 0, 256+len(resp.Sub)+48*resp.Nodes+6*resp.Blocks), resp), nil
	})
}

// readBody drains a bounded request body.
func readBody(r *http.Request) ([]byte, error) {
	blob, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes+1))
	if err != nil {
		return nil, badRequest("reading body: %v", err)
	}
	if len(blob) > MaxBodyBytes {
		return nil, &httpError{code: http.StatusRequestEntityTooLarge, msg: "body exceeds limit"}
	}
	return blob, nil
}

// writeResponse answers a write with the epoch it published.
type writeResponse struct {
	Blocks int    `json:"blocks"`
	Epoch  uint64 `json:"epoch"`
	Name   string `json:"name"`
}

// write is the one write route, append or put by how form turns the
// decoded body into the catalog write: decode, pass the drain gate, write
// through the catalog, answer with the published epoch.
func (s *Server) write(form func(*elasticmap.Array) func(*Snapshot) (*elasticmap.Array, error)) func(*span, *http.Request) ([]byte, error) {
	return func(_ *span, r *http.Request) ([]byte, error) {
		name := r.PathValue("name")
		blob, err := readBody(r)
		if err != nil {
			return nil, err
		}
		arr, err := elasticmap.Decode(blob)
		if err != nil {
			return nil, badRequest("decoding array: %v", err)
		}
		if err := s.beginWrite(); err != nil {
			return nil, err
		}
		defer s.endWrite()
		sn, err := s.cat.Write(name, form(arr))
		if err != nil {
			return nil, catalogError(name, err)
		}
		return marshal(writeResponse{Blocks: sn.Arr.Len(), Epoch: sn.Epoch, Name: name}), nil
	}
}
