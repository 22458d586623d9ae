package experiments

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"datanet/internal/elasticmap"
	"datanet/internal/gen"
	"datanet/internal/metrics"
	"datanet/internal/records"
	"datanet/internal/server"
)

// HotPathBench is the wall-clock record of the serving hot paths,
// emitted into BENCH_<n>.json to seed the performance trajectory the
// roadmap tracks: build throughput, estimate rate, and end-to-end HTTP
// query latency through the real server stack.
type HotPathBench struct {
	// BuildMBPerS is ElasticMap construction throughput over the raw
	// record bytes it indexes.
	BuildMBPerS float64 `json:"elasticmap_build_mb_per_s"`
	// BuildBlocks and BuildRawMB size the build input.
	BuildBlocks int     `json:"build_blocks"`
	BuildRawMB  float64 `json:"build_raw_mb"`
	// EstimatesPerS is the Eq. 6 size-estimate rate against the built
	// array, cycling through its sub-dataset keys.
	EstimatesPerS float64 `json:"estimates_per_s"`
	// LoadgenP50Ms / LoadgenP99Ms are estimate-query latencies through
	// the full HTTP server (mux, leadership-free single mode, per-epoch
	// cache), measured over LoadgenRequests sequential requests.
	LoadgenP50Ms    float64 `json:"loadgen_p50_ms"`
	LoadgenP99Ms    float64 `json:"loadgen_p99_ms"`
	LoadgenRequests int     `json:"loadgen_requests"`
	// ServeP50Ms / ServeP99Ms are the same requests measured server-side,
	// from the estimate endpoint's own latency histogram (the one /metrics
	// exports) — client-side minus these is transport overhead.
	ServeP50Ms float64 `json:"serve_p50_ms"`
	ServeP99Ms float64 `json:"serve_p99_ms"`
	// CacheHitRatio is hits/(hits+misses) of the per-epoch result cache
	// over the bench run, from the server's own counters.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
}

// MeasureHotPaths runs the three microbenches. Wall-clock numbers — the
// point is the trajectory across PRs, not bit-reproducibility.
func MeasureHotPaths() (*HotPathBench, error) {
	const (
		movies    = 400
		reviews   = 120000
		blockRecs = 500
		estimates = 200000
		requests  = 5000
	)
	recs := movieRecords(gen.MovieConfig{Movies: movies, Reviews: reviews, SpanDays: 365, Seed: 17})
	var blocks [][]records.Record
	var rawBytes int64
	for i := 0; i < len(recs); i += blockRecs {
		end := i + blockRecs
		if end > len(recs) {
			end = len(recs)
		}
		blocks = append(blocks, recs[i:end])
	}
	for _, r := range recs {
		rawBytes += r.Size()
	}

	b := &HotPathBench{BuildBlocks: len(blocks), BuildRawMB: float64(rawBytes) / (1 << 20)}

	start := time.Now()
	arr := elasticmap.Build(blocks, elasticmap.Options{Alpha: 0.3})
	buildWall := time.Since(start).Seconds()
	b.BuildMBPerS = b.BuildRawMB / buildWall

	subs := make([]string, 0, movies)
	for i := 0; i < movies; i++ {
		subs = append(subs, gen.MovieID(i))
	}
	start = time.Now()
	var sink int64
	for i := 0; i < estimates; i++ {
		total, _, _ := arr.EstimateDetailed(subs[i%len(subs)])
		sink += total
	}
	estWall := time.Since(start).Seconds()
	if sink == 0 {
		return nil, fmt.Errorf("estimate bench produced no bytes — wrong keys?")
	}
	b.EstimatesPerS = float64(estimates) / estWall

	store := server.NewStore(server.DefaultCacheSize)
	store.Put("bench", arr)
	srv := server.New(store)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}
	lat := metrics.NewHistogram()
	for i := 0; i < requests; i++ {
		url := ts.URL + "/v1/arrays/bench/estimate?sub=" + subs[i%len(subs)]
		t0 := time.Now()
		resp, err := client.Get(url)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		lat.Observe(float64(time.Since(t0).Microseconds()) / 1e3)
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("estimate request %d: status %d", i, resp.StatusCode)
		}
	}
	b.LoadgenP50Ms = lat.Quantile(0.50)
	b.LoadgenP99Ms = lat.Quantile(0.99)
	b.LoadgenRequests = requests
	dump := srv.DumpMetrics()
	if est, ok := dump.Endpoints["estimate"]; ok && est.Latency.Count() > 0 {
		// The server histogram observes seconds; the bench reports ms.
		b.ServeP50Ms = est.Latency.Quantile(0.50) * 1e3
		b.ServeP99Ms = est.Latency.Quantile(0.99) * 1e3
	}
	if total := dump.CacheHits + dump.CacheMisses; total > 0 {
		b.CacheHitRatio = float64(dump.CacheHits) / float64(total)
	}
	return b, nil
}
