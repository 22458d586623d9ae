package server

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"datanet/internal/metrics"
	"datanet/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden copy (re-run with -update if intended)\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) ([]byte, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), resp
}

// promSkeleton strips sample values, keeping comments and `name{labels}`
// lines: the exposition's field and label order, independent of traffic.
func promSkeleton(text []byte) []byte {
	var out bytes.Buffer
	for _, line := range strings.Split(strings.TrimRight(string(text), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			out.WriteString(line)
		} else if i := strings.LastIndexByte(line, ' '); i >= 0 {
			out.WriteString(line[:i])
		}
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// The JSON and Prometheus metric endpoints promise stable field/label
// ordering (endpoint labels ascending, families in fixed sequence); the
// goldens pin it. The /v1/metrics golden is the zero-traffic body — any
// field reorder, rename, or addition shows up as a diff. The /metrics
// golden is the value-stripped skeleton, which traffic cannot change.
func TestMetricsOrderingGolden(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	v1, resp := get(t, ts, "/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics: status %d", resp.StatusCode)
	}
	compareGolden(t, "v1_metrics_zero.golden", v1)

	prom, resp := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.PromContentType {
		t.Errorf("/metrics content type %q, want %q", got, obs.PromContentType)
	}
	if err := obs.ValidatePromText(prom); err != nil {
		t.Errorf("/metrics is not valid exposition text: %v", err)
	}
	compareGolden(t, "metrics_prom_skeleton.golden", promSkeleton(prom))

	// Traffic must not change the skeleton — only the values.
	for i := 0; i < 5; i++ {
		get(t, ts, "/v1/arrays/logs/estimate?sub=heavy-0")
		get(t, ts, "/v1/arrays/logs/estimate") // 400 path
		get(t, ts, "/v1/arrays")
	}
	prom2, _ := get(t, ts, "/metrics")
	if !bytes.Equal(promSkeleton(prom), promSkeleton(prom2)) {
		t.Error("/metrics skeleton changed under traffic")
	}
	if !strings.Contains(string(prom2), `datanet_http_requests_total{endpoint="estimate"} 10`) {
		t.Errorf("estimate requests not counted in exposition:\n%s", prom2)
	}
}

// DumpMetrics must be a consistent, mergeable snapshot: counters match
// the JSON view and merging dumps sums counters and concatenates
// histograms.
func TestDumpAndMergeDumps(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i := 0; i < 4; i++ {
		get(t, ts, fmt.Sprintf("/v1/arrays/logs/top?n=%d", i+1))
	}
	d := srv.DumpMetrics()
	if d.Endpoints["top"].Requests != 4 {
		t.Fatalf("dump top requests %d, want 4", d.Endpoints["top"].Requests)
	}
	if d.Endpoints["top"].Latency.Count() != 4 {
		t.Fatalf("dump top latency count %d, want 4", d.Endpoints["top"].Latency.Count())
	}
	if hits, misses := d.CacheHits, d.CacheMisses; hits+misses != 4 {
		t.Fatalf("cache hits %d + misses %d, want 4 total", hits, misses)
	}

	merged := MergeDumps(d, d, d)
	if merged.Endpoints["top"].Requests != 12 || merged.Endpoints["top"].Latency.Count() != 12 {
		t.Errorf("3-way merge: requests %d latency %d, want 12/12",
			merged.Endpoints["top"].Requests, merged.Endpoints["top"].Latency.Count())
	}
	if merged.CacheHits != 3*d.CacheHits || merged.CacheMisses != 3*d.CacheMisses {
		t.Errorf("3-way merge cache counts wrong: %+v", merged)
	}
	// The dump must be a snapshot: further traffic must not mutate it.
	before := d.Endpoints["top"].Latency.Count()
	get(t, ts, "/v1/arrays/test/top?n=9")
	if d.Endpoints["top"].Latency.Count() != before {
		t.Error("dump histogram mutated by later traffic")
	}
}

// A route's latency record is fixed-size: a million observations through
// one endpoint's histogram leave the live heap where it was.
func TestRouteLatencyHeapBounded(t *testing.T) {
	srv, _ := newTestServer(t)
	em := srv.byEndpoint["estimate"]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range 1_000_000 {
		em.latency.Observe(float64(i%5000) * 1e-6)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 64<<10 {
		t.Errorf("live heap grew %d B over 10^6 observations, want < 64 KiB", grew)
	}
	if got := srv.DumpMetrics().Endpoints["estimate"].Requests; got != 1_000_000 {
		t.Errorf("estimate requests %d, want 10^6", got)
	}
}

// DumpMetrics allocates the same bytes however many requests the routes
// have seen. A call's bytes are the least over 20 calls: the dump's map
// takes an overflow bucket or not with its random hash seed.
func TestDumpMetricsAllocIndependentOfTraffic(t *testing.T) {
	srv, _ := newTestServer(t)
	em := srv.byEndpoint["estimate"]
	dumpBytes := func() uint64 {
		least := uint64(math.MaxUint64)
		for range 20 {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			srv.DumpMetrics()
			runtime.ReadMemStats(&b)
			least = min(least, b.TotalAlloc-a.TotalAlloc)
		}
		return least
	}
	var got []uint64
	for i := range 100_000 {
		em.latency.Observe(float64(i%5000) * 1e-6)
		if i+1 == 1_000 || i+1 == 100_000 {
			got = append(got, dumpBytes())
		}
	}
	if got[0] != got[1] {
		t.Errorf("DumpMetrics allocates %d B after 10^3 requests, %d B after 10^5", got[0], got[1])
	}
}

// A dump of a server no request has reached copies no histogram: all of
// its routes together allocate less than one route's histogram. After one
// request, the dump copies that route's alone.
func TestDumpMetricsCopiesOnlyBusyRoutes(t *testing.T) {
	srv, _ := newTestServer(t)
	dumpBytes := func() uint64 {
		least := uint64(math.MaxUint64)
		for range 20 {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			srv.DumpMetrics()
			runtime.ReadMemStats(&b)
			least = min(least, b.TotalAlloc-a.TotalAlloc)
		}
		return least
	}
	histogram := uint64(unsafe.Sizeof(metrics.Latency{}))
	idle := dumpBytes()
	if idle >= histogram {
		t.Errorf("a dump of %d idle routes allocates %d B, one histogram is %d B", len(srv.byEndpoint), idle, histogram)
	}
	doReq(t, srv, "GET", "/v1/arrays/logs/estimate?sub=heavy-0", nil)
	if busy := dumpBytes(); busy < idle+histogram || busy >= idle+2*histogram {
		t.Errorf("after one request a dump allocates %d B, want one %d-B histogram over the idle %d B", busy, histogram, idle)
	}
	d := srv.DumpMetrics()
	if est := d.Endpoints["estimate"]; est.Requests != 1 || est.Latency.Count() != 1 {
		t.Errorf("estimate dumped %d requests, histogram count %d", est.Requests, est.Latency.Count())
	}
	if idle := d.Endpoints["top"]; idle.Requests != 0 || idle.Latency.Count() != 0 {
		t.Errorf("idle top dumped %d requests, histogram count %d", idle.Requests, idle.Latency.Count())
	}
}
