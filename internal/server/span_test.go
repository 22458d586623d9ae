package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"datanet/internal/elasticmap"
	"datanet/internal/metrics"
	"datanet/internal/obs"
	"datanet/internal/trace"
)

// sameObservations reports whether h holds exactly the observations vs:
// it equals, counter for counter (sum, min and max included), a fresh
// histogram fed vs. Those counters are everything a Latency holds.
func sameObservations(h *metrics.Latency, vs []float64) bool {
	want := new(metrics.Latency)
	for _, v := range vs {
		want.Observe(v)
	}
	return reflect.DeepEqual(h, want)
}

// Every counted route's latency histogram holds exactly its spans'
// durations: the request is timed once, and that one duration feeds both.
func TestSpanDurIsRouteLatency(t *testing.T) {
	s, arr := newTestServer(t)
	blob, err := elasticmap.Encode(arr)
	if err != nil {
		t.Fatal(err)
	}
	plan := []byte(`{"sub":"heavy-0","nodes":3}`)
	for _, q := range []struct {
		method, path string
		body         []byte
	}{
		{"GET", "/healthz", nil},
		{"GET", "/readyz", nil},
		{"GET", "/v1/arrays", nil},
		{"GET", "/v1/arrays/logs", nil},
		{"GET", "/v1/arrays/missing", nil},
		{"GET", "/v1/arrays/logs/estimate?sub=heavy-0", nil},
		{"GET", "/v1/arrays/logs/estimate?sub=heavy-0", nil},
		{"GET", "/v1/arrays/logs/estimate", nil},
		{"GET", "/v1/arrays/logs/distribution?sub=heavy-1", nil},
		{"GET", "/v1/arrays/logs/top?n=2", nil},
		{"GET", "/v1/arrays/logs/top?n=x", nil},
		{"POST", "/v1/arrays/logs/plan", plan},
		{"POST", "/v1/arrays/logs/plan", plan},
		{"POST", "/v1/arrays/logs/plan", []byte(`{`)},
		{"POST", "/v1/arrays/logs/append", blob},
		{"POST", "/v1/arrays/missing/append", blob},
		{"PUT", "/v1/arrays/copy", blob},
	} {
		doReq(t, s, q.method, q.path, q.body)
	}
	spans, m := s.tracer.Spans(), s.DumpMetrics()
	for _, label := range endpointLabels {
		var durs []float64
		var errs uint64
		for _, sp := range spans {
			if sp.Detail == label {
				durs = append(durs, sp.Dur)
				if sp.Request.Status >= 400 {
					errs++
				}
			}
		}
		ed := m.Endpoints[label]
		if len(durs) == 0 || ed.Requests != uint64(len(durs)) || ed.Errors != errs {
			t.Errorf("%s: %d spans (%d errors), metrics count %d requests (%d errors)",
				label, len(durs), errs, ed.Requests, ed.Errors)
		}
		if !sameObservations(ed.Latency, durs) {
			t.Errorf("%s: latency histogram is not the spans' durations %v", label, durs)
		}
	}
}

// A request's span carries the echoed or minted request ID, the retry
// count from the attempt header, the node, route, epoch, cache outcome
// and status; the optional logger writes it as one line.
func TestServerSpanAndRequestID(t *testing.T) {
	s, _ := newTestServer(t)
	var logged bytes.Buffer
	s.Logger = slog.New(slog.NewJSONHandler(&logged, nil))
	req := httptest.NewRequest("GET", "/v1/arrays/logs/estimate?sub=heavy-0", nil)
	req.Header.Set(obs.RequestIDHeader, "client-42")
	req.Header.Set(obs.AttemptHeader, "3")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get(obs.RequestIDHeader); got != "client-42" {
		t.Errorf("response request-id %q, want echo of client-42", got)
	}
	spans := s.tracer.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans recorded, want 1", len(spans))
	}
	sp := spans[0]
	if q := sp.Request; sp.Type != trace.EvRequest || q.ID != "client-42" || sp.Detail != "estimate" ||
		q.Status != 200 || sp.Node != -1 || q.Shard != -1 || q.Epoch != 1 || q.Cache != "miss" || sp.Count != 2 ||
		q.Method != "GET" || q.Path != "/v1/arrays/logs/estimate" {
		t.Errorf("span fields wrong: %+v %+v", sp, q)
	}
	if sp.Dur <= 0 || sp.T <= 0 {
		t.Errorf("span timing wrong: %+v", sp)
	}
	var line struct {
		RequestID, Route string
		Retries, Status  int
	}
	if err := json.Unmarshal(logged.Bytes(), &line); err != nil || line.RequestID != "client-42" ||
		line.Route != "estimate" || line.Retries != 2 || line.Status != 200 {
		t.Errorf("log line %q (%v)", logged.String(), err)
	}

	// Without a client ID the server mints one, echoes it and spans it.
	rec, _ = doReq(t, s, "GET", "/healthz", nil)
	minted := rec.Header().Get(obs.RequestIDHeader)
	if !strings.HasPrefix(minted, "r-") {
		t.Errorf("minted request id %q, want r- prefix", minted)
	}
	if spans := s.tracer.Spans(); len(spans) != 2 || spans[1].Request.ID != minted || spans[1].Detail != "healthz" {
		t.Errorf("minted-id span wrong: %+v", spans)
	}
}

// Requests no route counts — the mux's own 404 and 405, and the metrics
// views — are each one span with an empty route and an echoed ID, and
// move no endpoint count; the admin routes leave no span at all.
func TestUnmatchedRequestSpan(t *testing.T) {
	s, _ := newTestServer(t)
	before := s.DumpMetrics()
	uncounted := []struct {
		method, path string
		code         int
	}{
		{"GET", "/v1/nope", 404},
		{"DELETE", "/v1/arrays/x", 405},
		{"GET", "/v1/metrics", 200},
		{"GET", "/metrics", 200},
	}
	for i, q := range uncounted {
		req := httptest.NewRequest(q.method, q.path, nil)
		req.Header.Set(obs.RequestIDHeader, q.path)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != q.code || rec.Header().Get(obs.RequestIDHeader) != q.path {
			t.Errorf("%s %s: %d, request-id %q; want %d and the echo", q.method, q.path,
				rec.Code, rec.Header().Get(obs.RequestIDHeader), q.code)
		}
		if spans := s.tracer.Spans(); len(spans) != i+1 {
			t.Fatalf("%s %s: %d spans, want %d", q.method, q.path, len(spans), i+1)
		}
	}
	for _, path := range []string{"/admin/trace", "/admin/metrics"} {
		if rec, _ := doReq(t, s, "GET", path, nil); rec.Code != 200 || rec.Header().Get(obs.RequestIDHeader) != "" {
			t.Errorf("%s: %d, request-id %q", path, rec.Code, rec.Header().Get(obs.RequestIDHeader))
		}
	}
	spans := s.tracer.Spans()
	if len(spans) != len(uncounted) {
		t.Fatalf("%d spans after admin scrapes, want %d", len(spans), len(uncounted))
	}
	for i, sp := range spans {
		if q := uncounted[i]; sp.Detail != "" || sp.Request.ID != q.path || sp.Request.Status != q.code {
			t.Errorf("span %d: %+v %+v", i, sp, sp.Request)
		}
	}
	after := s.DumpMetrics()
	for _, label := range endpointLabels {
		b, a := before.Endpoints[label], after.Endpoints[label]
		if a.Requests != b.Requests || a.Errors != b.Errors || a.Latency.Count() != b.Latency.Count() {
			t.Errorf("%s counted an unmatched request: %+v → %+v", label, b, a)
		}
	}
}
