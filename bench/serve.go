package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"datanet"
	"datanet/internal/elasticmap"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/records"
	"datanet/internal/server"
)

// arrayName is the catalog key the serving workloads query.
const arrayName = "reviews"

// estimateAnswer is the checked part of an /estimate response.
type estimateAnswer struct {
	Estimate      int64 `json:"estimate"`
	HashedBlocks  int   `json:"hashedBlocks"`
	BloomedBlocks int   `json:"bloomedBlocks"`
}

// expectEstimates attaches to every estimate of a real key the answer the
// service must give, computed straight from the array.
func expectEstimates(arr *elasticmap.Array, reqs []request) {
	want := map[string]*estimateAnswer{}
	for i, r := range reqs {
		if r.sub == "" {
			continue
		}
		if _, ok := want[r.sub]; !ok {
			total, hashed, bloomed := arr.EstimateDetailed(r.sub)
			want[r.sub] = &estimateAnswer{total, hashed, bloomed}
		}
		reqs[i].want = want[r.sub]
	}
}

var epochKey = []byte(`"epoch":`)

// epochOf extracts the epoch of a response body; ok is false for bodies
// that carry none (error responses).
func epochOf(body []byte) (epoch uint64, ok bool) {
	i := bytes.Index(body, epochKey)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(epochKey):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	epoch, err := strconv.ParseUint(string(rest[:j]), 10, 64)
	return epoch, err == nil
}

// client is one closed-loop caller: it sends its next request only when the
// previous answer has arrived, over one kept-alive connection.
type client struct {
	hc        *http.Client
	lastEpoch uint64
	stale     int // responses flagged X-Datanet-Stale

	lat    []float64
	digest uint64
	p      *passResult // failures are counted here; guarded by mu
	mu     *sync.Mutex
}

func newClient(p *passResult, mu *sync.Mutex) *client {
	return &client{
		hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		p:  p, mu: mu,
	}
}

func (c *client) fail(format string, args ...any) {
	c.mu.Lock()
	c.p.fail(format, args...)
	c.mu.Unlock()
}

// do sends one request, records its latency and checks the answer: no
// transport error, no 5xx, the epoch never moves backwards, an estimate of
// a real key equals what the array says. It returns the latency in ms.
func (c *client) do(tr *tracer, base string, r request) float64 {
	req, err := http.NewRequest(r.method, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		c.fail("%s %s: %v", r.method, r.path, err)
		return 0
	}
	id := tr.begin("req:"+r.kind, "server")
	start := time.Now()
	resp, err := c.hc.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	tr.end(id, int64(len(body)))
	if err != nil {
		c.fail("%s %s: transport: %v", r.method, r.path, err)
		return ms
	}

	// Commutative digest: per-exchange FNV-64a hashes are summed, so the
	// result does not depend on how the clients interleave.
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %s\x00%d\x00", r.method, r.path, resp.StatusCode)
	if r.kind == "append" {
		// elasticmap.Encode writes a block's hash map in Go's map order, so
		// the same array encodes to other bytes in another process: only
		// the length of an append's body is stable.
		fmt.Fprintf(h, "%d", len(r.body))
	} else {
		h.Write(r.body)
	}
	h.Write([]byte{0})
	h.Write(body)
	c.digest += h.Sum64()

	if resp.StatusCode >= 500 {
		c.fail("%s %s: status %d: %s", r.method, r.path, resp.StatusCode, body)
		return ms
	}
	if resp.Header.Get("X-Datanet-Stale") != "" {
		c.stale++
	}
	if epoch, ok := epochOf(body); ok {
		if epoch < c.lastEpoch {
			c.fail("%s %s: epoch went backwards, %d after %d", r.method, r.path, epoch, c.lastEpoch)
		}
		c.lastEpoch = epoch
	}
	if r.want != nil {
		var got estimateAnswer
		if err := json.Unmarshal(body, &got); err != nil || resp.StatusCode != http.StatusOK {
			c.fail("%s: status %d, body %q", r.path, resp.StatusCode, body)
		} else if got != *r.want {
			c.fail("%s: service says %+v, Array.EstimateDetailed says %+v", r.path, got, *r.want)
		}
	}
	return ms
}

// runClients splits reqs round-robin over n closed-loop clients and waits
// for them; the pass result receives latencies, digest and failures.
func runClients(tr *tracer, base string, reqs []request, n int, p *passResult) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	clients := make([]*client, n)
	tracers := make([]*tracer, n)
	for i := range clients {
		clients[i], tracers[i] = newClient(p, &mu), tr.fork()
		wg.Add(1)
		go func(c *client, ctr *tracer, first int) {
			defer wg.Done()
			defer c.hc.CloseIdleConnections()
			for k := first; k < len(reqs); k += n {
				c.lat = append(c.lat, c.do(ctr, base, reqs[k]))
			}
		}(clients[i], tracers[i], i)
	}
	wg.Wait()
	for i, c := range clients {
		p.lat = append(p.lat, c.lat...)
		p.digest += c.digest
		if tr != nil {
			tr.join(tracers[i])
		}
	}
	p.attempted += len(reqs)
}

// serveDirect hands one request straight to a handler, no TCP.
func serveDirect(h http.Handler, r request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body)))
	return rec
}

// directUs times each request through the handler on one goroutine and
// returns the per-request microseconds.
func directUs(h http.Handler, reqs []request) []float64 {
	out := make([]float64, len(reqs))
	for i, r := range reqs {
		start := time.Now()
		serveDirect(h, r)
		out[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return out
}

// mallocsPer returns heap allocations per call of f over n calls.
func mallocsPer(n int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// newServer builds the single-process service holding arr.
func newServer(arr *elasticmap.Array) *server.Server {
	store := server.NewStore(server.DefaultCacheSize)
	store.Put(arrayName, arr)
	return server.New(store)
}

// buildM1 generates D1, writes it to FS-A and builds M1, its ElasticMap.
func buildM1(seed int64, sz sizes) ([]records.Record, *hdfs.FileSystem, *datanet.Meta, error) {
	recs := genD1(seed, sz)
	fs, err := writeFS(recs, sz.ANodes, sz.ARacks, sz.ABlock, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	meta, err := datanet.BuildMeta(fs, fileName, datanet.MetaOptions{Alpha: metaAlpha})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("building M1: %w", err)
	}
	return recs, fs, meta, nil
}

// warmPool is the key pool `datanet loadgen` would use: the largest
// sub-datasets by dominant volume.
func warmPool(arr *elasticmap.Array, n int) []string {
	top := elasticmap.NewIndex(arr).Top(n)
	pool := make([]string, len(top))
	for i, e := range top {
		pool[i] = e.Sub
	}
	return pool
}

// serveInst is an in-process server behind a loopback listener, queried by
// closed-loop clients with a fixed request list.
type serveInst struct {
	warm bool
	sz   sizes
	arr  *elasticmap.Array
	srv  *server.Server
	ts   *httptest.Server
	reqs []request
}

func setupServeWarm(seed int64, sz sizes) (instance, error) { return setupServe(seed, sz, true) }
func setupServeCold(seed int64, sz sizes) (instance, error) { return setupServe(seed, sz, false) }

func setupServe(seed int64, sz sizes, warm bool) (instance, error) {
	_, _, meta, err := buildM1(seed, sz)
	if err != nil {
		return nil, err
	}
	s := &serveInst{warm: warm, sz: sz, arr: meta.Array()}
	pool, n := s.arr.Subs(), sz.ColdRequests
	if warm {
		pool, n = warmPool(s.arr, sz.WarmPool), sz.WarmRequests
	}
	s.reqs = generateMix(rand.New(rand.NewSource(seed)), arrayName, pool, n, sz.PlanNodes)
	expectEstimates(s.arr, s.reqs)
	s.srv = newServer(s.arr)
	s.ts = httptest.NewServer(s.srv)
	return s, nil
}

func (s *serveInst) prepare() error { return nil }
func (s *serveInst) close()         { s.ts.Close() }

func (s *serveInst) pass(tr *tracer) (*passResult, error) {
	p := &passResult{counts: map[string]int64{}}
	before := s.srv.DumpMetrics()
	runClients(tr, s.ts.URL, s.reqs, s.sz.Clients, p)
	after := s.srv.DumpMetrics()
	p.counts["cache_hits"] = int64(after.CacheHits - before.CacheHits)
	p.counts["cache_misses"] = int64(after.CacheMisses - before.CacheMisses)
	return p, nil
}

// serverSideLayers fills the per-layer metrics every serving workload
// reports: cache hit share over the traced pass and the server's own
// estimate latency histogram.
func serverSideLayers(lc *layerCtx, dump server.MetricsDump) {
	traced := lc.passes[len(lc.passes)-1]
	hits, misses := traced.counts["cache_hits"], traced.counts["cache_misses"]
	if hits+misses > 0 {
		lc.set("server.cache_hit_share", float64(hits)/float64(hits+misses))
	}
	if est, ok := dump.Endpoints["estimate"]; ok && est.Latency.Count() > 0 {
		lc.set("server.side_p50_us", est.Latency.Quantile(0.50)*1e6)
		lc.set("server.side_p99_us", est.Latency.Quantile(0.99)*1e6)
	}
}

// perKey builds one request per key from a path template.
func perKey(keys []string, build func(sub string) request) []request {
	out := make([]request, len(keys))
	for i, k := range keys {
		out[i] = build(k)
	}
	return out
}

func planRequest(sub, scheduler string, nodes int) request {
	body, _ := json.Marshal(map[string]any{"sub": sub, "nodes": nodes, "scheduler": scheduler}) // cannot fail
	return request{method: "POST", path: "/v1/arrays/" + arrayName + "/plan", body: body}
}

func (s *serveInst) layers(lc *layerCtx) error {
	serverSideLayers(lc, s.srv.DumpMetrics())
	// Transport = client median − handler median, the handler median taken
	// by replaying the head of the same request list with no TCP, against
	// the same server and so the same cache state.
	lc.set("server.transport_us", lc.e2e["p50_ms"].Value*1e3-median(directUs(s.srv, s.reqs[:min(len(s.reqs), 4000)])))
	prefix := "/v1/arrays/" + arrayName
	get := func(path string) request { return request{method: "GET", path: prefix + path} }
	repeat := func(r request, n int) []request {
		out := make([]request, n)
		for i := range out {
			out[i] = r
		}
		return out
	}

	if s.warm {
		// Hit paths: the same request repeated on a fresh server, the first
		// (a miss) dropped.
		const n = 2000
		srv := newServer(s.arr)
		hit := get("/estimate?sub=" + gen.MovieID(0))
		lc.setSamples("server.estimate_hit_us", directUs(srv, repeat(hit, n))[1:])
		lc.setSamples("server.top_us", directUs(srv, repeat(get("/top?n=10"), n))[1:])
		lc.setSamples("server.info_us", directUs(srv, repeat(get(""), n)))
		lc.setSamples("server.bad_request_us", directUs(srv, repeat(get("/estimate"), n)))
		lc.set("server.allocs_per_hit", mallocsPer(n, func(int) { serveDirect(srv, hit) }))
		return nil
	}

	// Miss paths: every key once against a fresh server, so each request
	// computes its answer (scan of all block metas, Bloom probes) and
	// stores it. Plans are costlier, so fewer keys.
	subs := s.arr.Subs()
	estimates := perKey(subs, func(sub string) request { return get("/estimate?sub=" + sub) })
	lc.setSamples("server.estimate_miss_us", directUs(newServer(s.arr), estimates))
	lc.setSamples("server.distribution_miss_us", directUs(newServer(s.arr),
		perKey(subs, func(sub string) request { return get("/distribution?sub=" + sub) })))
	lc.setSamples("server.plan_datanet_miss_us", directUs(newServer(s.arr),
		perKey(subs[:min(len(subs), 200)], func(sub string) request { return planRequest(sub, "datanet", s.sz.PlanNodes) })))
	maxflowUs := directUs(newServer(s.arr),
		perKey(subs[:min(len(subs), 20)], func(sub string) request { return planRequest(sub, "maxflow", s.sz.PlanNodes) }))
	lc.set("server.plan_maxflow_miss_ms", median(maxflowUs)/1e3)
	srv := newServer(s.arr)
	lc.set("server.allocs_per_miss", mallocsPer(len(estimates), func(i int) { serveDirect(srv, estimates[i]) }))

	// The library calls behind those endpoints, no HTTP at all.
	perSub := func(f func(sub string)) []float64 {
		out := make([]float64, len(subs))
		for i, sub := range subs {
			start := time.Now()
			f(sub)
			out[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		}
		return out
	}
	lc.setSamples("elasticmap.estimate_us", perSub(func(sub string) { s.arr.EstimateDetailed(sub) }))
	lc.setSamples("elasticmap.distribution_us", perSub(func(sub string) { s.arr.Distribution(sub) }))
	return nil
}
