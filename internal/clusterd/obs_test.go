package clusterd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"datanet/internal/cluster"
	"datanet/internal/elasticmap"
	"datanet/internal/metrics"
	"datanet/internal/obs"
	"datanet/internal/trace"
)

// promSamples parses exposition text into sample → value, skipping
// comments and any family whose name starts with a skipped prefix.
func promSamples(t *testing.T, text []byte, skipPrefixes ...string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(string(text), "\n"), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		key, val := line[:i], line[i+1:]
		skip := false
		for _, p := range skipPrefixes {
			if strings.HasPrefix(key, p) {
				skip = true
			}
		}
		if skip {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[key] = v
	}
	return out
}

// The /admin/metrics rollup must equal what a scraper computes by
// summing every node's /metrics: same sample set, counters summing
// exactly, histogram sums to float tolerance. Runtime gauges stay
// per-node; datanet_cluster_ families exist only in the rollup.
func TestAdminMetricsRollupEqualsNodeSum(t *testing.T) {
	cfg := testConfig(4, 2)
	c, srvs := httpCluster(t, cfg, 3)
	names := testNames(6)
	seed(t, c, names)

	get := func(id cluster.NodeID, path string) []byte {
		resp, err := http.Get(srvs[id].URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.Bytes()
	}

	// Traffic: every node sees every array — leaders answer, non-leaders
	// refuse; both paths move counters somewhere.
	for _, id := range c.MemberIDs() {
		for _, name := range names {
			get(id, "/v1/arrays/"+name+"/estimate?sub="+name)
			get(id, "/v1/arrays/"+name+"/top?n=2")
		}
		get(id, "/healthz")
	}

	want := map[string]float64{}
	for _, id := range c.MemberIDs() {
		text := get(id, "/metrics")
		if err := obs.ValidatePromText(text); err != nil {
			t.Fatalf("node %d /metrics invalid: %v", id, err)
		}
		for k, v := range promSamples(t, text, "datanet_go_") {
			want[k] += v
		}
	}

	rollup := get(0, "/admin/metrics")
	if err := obs.ValidatePromText(rollup); err != nil {
		t.Fatalf("/admin/metrics invalid: %v", err)
	}
	if !strings.Contains(string(rollup), "datanet_cluster_topology_gen") ||
		!strings.Contains(string(rollup), `datanet_cluster_shard_primary{shard="0"}`) {
		t.Errorf("rollup missing cluster families:\n%s", rollup)
	}
	got := promSamples(t, rollup, "datanet_cluster_")

	if len(got) != len(want) {
		t.Errorf("rollup has %d samples, node sum has %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("rollup missing sample %s", k)
			continue
		}
		if strings.Contains(k, "_sum") {
			if math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
				t.Errorf("%s: rollup %v, node sum %v", k, g, w)
			}
		} else if g != w {
			t.Errorf("%s: rollup %v, node sum %v", k, g, w)
		}
	}
}

// Requests through a cluster node must leave spans in its ring with the
// cluster annotations (node, shard, request ID propagation, staleness
// default off) visible via /admin/trace.
func TestHandlerTraceSpans(t *testing.T) {
	cfg := testConfig(2, 1)
	c, srvs := httpCluster(t, cfg, 3)
	names := testNames(2)
	seed(t, c, names)
	name := names[0]
	si := ShardOf(name, cfg.Shards)
	primary := cluster.NodeID(c.Topology().Map[si].Primary)

	req, _ := http.NewRequest("GET", srvs[primary].URL+"/v1/arrays/"+name+"/estimate?sub="+name, nil)
	req.Header.Set(obs.RequestIDHeader, "trace-test-1")
	req.Header.Set(obs.AttemptHeader, "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "trace-test-1" {
		t.Errorf("request id not echoed: %q", got)
	}

	resp, err = http.Get(srvs[primary].URL + "/admin/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var found *trace.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var sp trace.Event
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil || sp.Request == nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if sp.Request.ID == "trace-test-1" {
			found = &sp
		}
	}
	if found == nil {
		t.Fatal("traced request not in span ring")
	}
	if q := found.Request; found.Type != trace.EvRequest || found.Node != int(primary) || q.Shard != si ||
		q.Status != 200 || found.Detail != "estimate" || q.Stale || found.Count != 2 || q.Epoch != 1 || q.Cache != "miss" {
		t.Errorf("span annotations wrong: %+v %+v", found, q)
	}

	// Without a client ID the node mints one, echoes it and spans it.
	code, _ := call(t, "GET", srvs[primary].URL+"/healthz", nil)
	evs := spans(t, srvs[primary].URL)
	if last := evs[len(evs)-1]; code != 200 || !strings.HasPrefix(last.Request.ID, "r-") ||
		last.Detail != "healthz" || last.Node != int(primary) || last.Request.Shard != -1 {
		t.Errorf("minted-id span wrong: %d %+v %+v", code, last, last.Request)
	}
}

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

// On a cluster node too, every counted route's latency histogram holds
// exactly its spans' durations, leadership refusals included.
func TestNodeSpanDurIsRouteLatency(t *testing.T) {
	c, err := New(testConfig(1, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	seed(t, c, []string{"a"})
	primary := cluster.NodeID(c.Topology().Map[0].Primary)
	h, err := NewHandler(c, primary)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	blob, err := elasticmap.Encode(tinyArray("a", 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		method, path string
		body         []byte
	}{
		{"GET", "/healthz", nil},
		{"GET", "/readyz", nil},
		{"GET", "/v1/arrays", nil},
		{"GET", "/v1/arrays/a", nil},
		{"GET", "/v1/arrays/missing", nil},
		{"GET", "/v1/arrays/a/estimate?sub=a", nil},
		{"GET", "/v1/arrays/a/estimate?sub=a", nil},
		{"GET", "/v1/arrays/a/estimate", nil},
		{"GET", "/v1/arrays/a/distribution?sub=a", nil},
		{"GET", "/v1/arrays/a/top?n=2", nil},
		{"POST", "/v1/arrays/a/plan", []byte(`{"sub":"a","nodes":3}`)},
		{"POST", "/v1/arrays/a/plan", []byte(`{`)},
		{"POST", "/v1/arrays/a/append", blob},
		{"PUT", "/v1/arrays/a", blob},
	} {
		call(t, q.method, ts.URL+q.path, q.body)
	}
	evs, m := spans(t, ts.URL), h.Server().DumpMetrics()
	for label, ed := range m.Endpoints {
		var durs []float64
		for _, ev := range evs {
			if ev.Detail == label {
				durs = append(durs, ev.Dur)
				if ev.Node != int(primary) {
					t.Errorf("%s span on node %d, want %d", label, ev.Node, primary)
				}
			}
		}
		if len(durs) == 0 || ed.Requests != uint64(len(durs)) || !sameObservations(ed.Latency, durs) {
			t.Errorf("%s: %d spans %v, metrics count %d requests, latency not the spans' durations",
				label, len(durs), durs, ed.Requests)
		}
	}
}

// A cluster node's mux 404 and 405 answers are each one span with an
// empty route and an echoed ID, and move no endpoint count.
func TestNodeUnmatchedRequestSpan(t *testing.T) {
	c, err := New(testConfig(1, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	seed(t, c, []string{"x"})
	h, err := NewHandler(c, cluster.NodeID(c.Topology().Map[0].Primary))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		method, path string
		code         int
	}{
		{"GET", "/v1/nope", 404},
		{"DELETE", "/v1/arrays/x", 405},
	} {
		req := httptest.NewRequest(q.method, q.path, nil)
		req.Header.Set(obs.RequestIDHeader, q.path)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != q.code || rec.Header().Get(obs.RequestIDHeader) != q.path {
			t.Errorf("%s %s: %d, request-id %q; want %d and the echo", q.method, q.path,
				rec.Code, rec.Header().Get(obs.RequestIDHeader), q.code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/admin/trace", nil))
	var evs []trace.Event
	for _, line := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n")) {
		var ev trace.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	if len(evs) != 2 || evs[0].Request.Status != 404 || evs[1].Request.Status != 405 ||
		evs[0].Detail != "" || evs[1].Detail != "" {
		t.Fatalf("unmatched spans: %+v", evs)
	}
	for label, ed := range h.Server().DumpMetrics().Endpoints {
		if ed.Requests != 0 || ed.Errors != 0 || ed.Latency.Count() != 0 {
			t.Errorf("%s counted an unmatched request: %+v", label, ed)
		}
	}
}
