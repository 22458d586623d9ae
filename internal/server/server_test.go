package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"datanet/internal/elasticmap"
	"datanet/internal/graph"
	"datanet/internal/records"
)

// newTestServer builds a service holding one array "logs" with a mix of
// hashed and bloomed entries (α=0.5 splits each block's subs).
func newTestServer(t *testing.T) (*Server, *elasticmap.Array) {
	t.Helper()
	blocks := [][]records.Record{
		blockOf("heavy-0", "heavy-0", "heavy-0", "light-0"),
		blockOf("heavy-1", "heavy-1", "light-1"),
		blockOf("heavy-0", "heavy-2", "light-2"),
		blockOf("heavy-2"),
	}
	arr := elasticmap.Build(blocks, elasticmap.Options{Alpha: 0.5})
	store := NewStore(32)
	store.Put("logs", arr)
	return New(store), arr
}

func doReq(t *testing.T, s *Server, method, target string, body []byte) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var doc map[string]any
	// The mux's own 404/405 bodies are plain text; leave doc nil for those.
	if rec.Body.Len() > 0 {
		_ = json.Unmarshal(rec.Body.Bytes(), &doc)
	}
	return rec, doc
}

func TestServerHealthAndCatalog(t *testing.T) {
	s, arr := newTestServer(t)
	rec, doc := doReq(t, s, "GET", "/healthz", nil)
	if rec.Code != 200 || doc["ok"] != true {
		t.Fatalf("healthz: %d %v", rec.Code, doc)
	}
	rec, doc = doReq(t, s, "GET", "/v1/arrays", nil)
	if rec.Code != 200 {
		t.Fatalf("arrays: %d", rec.Code)
	}
	arrays := doc["arrays"].([]any)
	if len(arrays) != 1 {
		t.Fatalf("arrays = %v", arrays)
	}
	row := arrays[0].(map[string]any)
	if row["name"] != "logs" || row["epoch"] != float64(1) || row["blocks"] != float64(arr.Len()) {
		t.Fatalf("catalog row = %v", row)
	}
	rec, doc = doReq(t, s, "GET", "/v1/arrays/logs", nil)
	if rec.Code != 200 || doc["blocks"] != float64(arr.Len()) {
		t.Fatalf("info: %d %v", rec.Code, doc)
	}
	if rec, _ := doReq(t, s, "GET", "/v1/arrays/missing", nil); rec.Code != 404 {
		t.Fatalf("missing array: %d", rec.Code)
	}
}

func TestServerEstimateAndDistribution(t *testing.T) {
	s, arr := newTestServer(t)
	rec, doc := doReq(t, s, "GET", "/v1/arrays/logs/estimate?sub=heavy-0", nil)
	if rec.Code != 200 {
		t.Fatalf("estimate: %d %v", rec.Code, doc)
	}
	if got := int64(doc["estimate"].(float64)); got != arr.Estimate("heavy-0") {
		t.Fatalf("estimate = %d, want %d", got, arr.Estimate("heavy-0"))
	}
	rec, doc = doReq(t, s, "GET", "/v1/arrays/logs/distribution?sub=heavy-0", nil)
	if rec.Code != 200 {
		t.Fatalf("distribution: %d", rec.Code)
	}
	blocks := doc["blocks"].([]any)
	if len(blocks) != len(arr.Distribution("heavy-0")) {
		t.Fatalf("distribution rows = %d", len(blocks))
	}
	var sum int64
	for _, b := range blocks {
		sum += int64(b.(map[string]any)["size"].(float64))
	}
	if sum != arr.Estimate("heavy-0") {
		t.Fatalf("distribution sum %d != estimate %d", sum, arr.Estimate("heavy-0"))
	}
	if rec, _ := doReq(t, s, "GET", "/v1/arrays/logs/estimate", nil); rec.Code != 400 {
		t.Fatalf("missing sub: %d", rec.Code)
	}
	// Unknown sub is a valid query, not an error (the estimate may still be
	// nonzero through Bloom false positives — that is Eq. 6's semantics).
	rec, doc = doReq(t, s, "GET", "/v1/arrays/logs/estimate?sub=nope", nil)
	if rec.Code != 200 || doc["hashedBlocks"] != float64(0) {
		t.Fatalf("unknown sub: %d %v", rec.Code, doc)
	}
}

func TestServerTop(t *testing.T) {
	s, arr := newTestServer(t)
	rec, doc := doReq(t, s, "GET", "/v1/arrays/logs/top?n=2", nil)
	if rec.Code != 200 {
		t.Fatalf("top: %d", rec.Code)
	}
	entries := doc["entries"].([]any)
	want := elasticmap.NewIndex(arr).Top(2)
	if len(entries) != len(want) {
		t.Fatalf("top rows = %d, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		row := e.(map[string]any)
		if row["sub"] != want[i].Sub || int64(row["bytes"].(float64)) != want[i].Bytes {
			t.Fatalf("top[%d] = %v, want %+v", i, row, want[i])
		}
	}
	if rec, _ := doReq(t, s, "GET", "/v1/arrays/logs/top?n=-1", nil); rec.Code != 400 {
		t.Fatalf("negative n: %d", rec.Code)
	}
	if rec, _ := doReq(t, s, "GET", "/v1/arrays/logs/top?n=zzz", nil); rec.Code != 400 {
		t.Fatalf("non-numeric n: %d", rec.Code)
	}
}

func TestServerPlanEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	// The four names the endpoint served before it read the scheduler
	// table plan byte for byte as they did then.
	var pinned bytes.Buffer
	for _, sched := range []string{"datanet", "maxflow", "locality", "lpt"} {
		for _, nodes := range []int{3, 4} {
			body := fmt.Sprintf(`{"sub":"heavy-0","nodes":%d,"scheduler":%q}`, nodes, sched)
			rec, _ := doReq(t, s, "POST", "/v1/arrays/logs/plan", []byte(body))
			fmt.Fprintf(&pinned, "%s\n%d %s\n", body, rec.Code, rec.Body.Bytes())
		}
	}
	compareGolden(t, "plan_bodies.golden", pinned.Bytes())
	// Every name and alias of the table plans and echoes its canonical name.
	for sched, canonical := range map[string]string{
		"datanet": "datanet", "maxflow": "maxflow", "locality": "locality", "lpt": "lpt",
		"capacity": "datanet-capacity", "datanet-capacity": "datanet-capacity", "": "datanet",
	} {
		body := fmt.Sprintf(`{"sub":"heavy-0","nodes":4,"scheduler":%q}`, sched)
		rec, doc := doReq(t, s, "POST", "/v1/arrays/logs/plan", []byte(body))
		if rec.Code != 200 {
			t.Fatalf("%s plan: %d %v", sched, rec.Code, doc)
		}
		if doc["scheduler"] != canonical {
			t.Errorf("%q plan echoes scheduler %v, want %q", sched, doc["scheduler"], canonical)
		}
		perNode := doc["perNode"].([]any)
		if len(perNode) != 4 {
			t.Fatalf("%s: perNode = %d rows", sched, len(perNode))
		}
		// Every block is assigned exactly once; loads sum to totalWeight.
		seen := map[int]bool{}
		var loadSum int64
		for _, pn := range perNode {
			row := pn.(map[string]any)
			loadSum += int64(row["load"].(float64))
			for _, b := range row["blocks"].([]any) {
				j := int(b.(float64))
				if seen[j] {
					t.Fatalf("%s: block %d assigned twice", sched, j)
				}
				seen[j] = true
			}
		}
		if len(seen) != int(doc["blocks"].(float64)) {
			t.Fatalf("%s: %d blocks assigned, want %v", sched, len(seen), doc["blocks"])
		}
		if loadSum != int64(doc["totalWeight"].(float64)) {
			t.Fatalf("%s: loads sum %d != totalWeight %v", sched, loadSum, doc["totalWeight"])
		}
	}
	for name, body := range map[string]string{
		"bad json":      `{`,
		"no sub":        `{"nodes":4}`,
		"no nodes":      `{"sub":"x"}`,
		"huge nodes":    `{"sub":"x","nodes":999999}`,
		"bad scheduler": `{"sub":"x","nodes":4,"scheduler":"zzz"}`,
		"alias case":    `{"sub":"x","nodes":4,"scheduler":"Capacity"}`,
		"bad locations": `{"sub":"x","nodes":4,"locations":[[9]]}`,
		"racks>nodes":   `{"sub":"x","nodes":2,"racks":4}`,
		"unknown field": `{"sub":"heavy-0","nodes":4,"schedular":"lpt"}`,
		"trailing data": `{"sub":"heavy-0","nodes":4} x`,
		"two objects":   `{"sub":"heavy-0","nodes":4}{"sub":"heavy-1","nodes":4}`,
	} {
		if rec, _ := doReq(t, s, "POST", "/v1/arrays/logs/plan", []byte(body)); rec.Code != 400 {
			t.Fatalf("%s accepted: %d", name, rec.Code)
		}
	}
	if rec, _ := doReq(t, s, "POST", "/v1/arrays/logs/plan", []byte("{\"sub\":\"heavy-0\",\"nodes\":4}\n\t ")); rec.Code != 200 {
		t.Fatalf("white space after the request: %d %s", rec.Code, rec.Body)
	}
}

func TestServerPlanDeterministicAndCached(t *testing.T) {
	s, _ := newTestServer(t)
	body := []byte(`{"sub":"heavy-0","nodes":4,"scheduler":"datanet"}`)
	rec1, _ := doReq(t, s, "POST", "/v1/arrays/logs/plan", body)
	rec2, _ := doReq(t, s, "POST", "/v1/arrays/logs/plan", body)
	if rec1.Body.String() != rec2.Body.String() {
		t.Fatal("plan responses differ between identical requests")
	}
	m := s.DumpMetrics()
	if m.CacheHits == 0 {
		t.Fatalf("second plan request did not hit the cache: %+v", m)
	}
}

func TestServerPutAndAppend(t *testing.T) {
	s, arr := newTestServer(t)
	extra := elasticmap.Build([][]records.Record{blockOf("fresh-0")}, elasticmap.Options{Alpha: 0.5})
	blob, err := elasticmap.Encode(extra)
	if err != nil {
		t.Fatal(err)
	}
	rec, doc := doReq(t, s, "POST", "/v1/arrays/logs/append", blob)
	if rec.Code != 200 || doc["epoch"] != float64(2) || doc["blocks"] != float64(arr.Len()+1) {
		t.Fatalf("append: %d %v", rec.Code, doc)
	}
	// The new epoch serves the appended data.
	rec, doc = doReq(t, s, "GET", "/v1/arrays/logs/estimate?sub=fresh-0", nil)
	if rec.Code != 200 || doc["epoch"] != float64(2) || doc["estimate"] == float64(0) {
		t.Fatalf("post-append estimate: %d %v", rec.Code, doc)
	}
	// PUT creates a new array.
	rec, doc = doReq(t, s, "PUT", "/v1/arrays/fresh", blob)
	if rec.Code != 200 || doc["epoch"] != float64(1) {
		t.Fatalf("put: %d %v", rec.Code, doc)
	}
	if names := s.cat.(*Store).Names(); strings.Join(names, ",") != "fresh,logs" {
		t.Fatalf("names = %v", names)
	}
	// Corrupt and misdirected writes are client errors.
	if rec, _ := doReq(t, s, "POST", "/v1/arrays/logs/append", []byte("garbage")); rec.Code != 400 {
		t.Fatalf("corrupt append: %d", rec.Code)
	}
	if rec, _ := doReq(t, s, "POST", "/v1/arrays/missing/append", blob); rec.Code != 404 {
		t.Fatalf("append to missing: %d", rec.Code)
	}
	if rec, _ := doReq(t, s, "PUT", "/v1/arrays/bad", []byte{0xff, 0xfe}); rec.Code != 400 {
		t.Fatalf("corrupt put: %d", rec.Code)
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	doReq(t, s, "GET", "/v1/arrays/logs/estimate?sub=heavy-0", nil)
	doReq(t, s, "GET", "/v1/arrays/logs/estimate?sub=heavy-0", nil)
	doReq(t, s, "GET", "/v1/arrays/logs/estimate", nil) // error
	rec, doc := doReq(t, s, "GET", "/v1/metrics", nil)
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	eps := doc["endpoints"].(map[string]any)
	est := eps["estimate"].(map[string]any)
	if est["requests"] != float64(3) || est["errors"] != float64(1) {
		t.Fatalf("estimate stats = %v", est)
	}
	if est["latency"].(map[string]any)["count"] != float64(3) {
		t.Fatalf("latency count = %v", est["latency"])
	}
	if doc["cacheHits"] != float64(1) || doc["cacheMisses"] != float64(1) {
		t.Fatalf("cache stats = %v/%v", doc["cacheHits"], doc["cacheMisses"])
	}
	m := s.DumpMetrics()
	if m.Endpoints["estimate"].Requests != 3 {
		t.Fatalf("DumpMetrics() = %+v", m.Endpoints["estimate"])
	}
}

func TestServerMethodAndPathErrors(t *testing.T) {
	s, _ := newTestServer(t)
	if rec, _ := doReq(t, s, "DELETE", "/v1/arrays/logs", nil); rec.Code != 405 {
		t.Fatalf("DELETE: %d", rec.Code)
	}
	if rec, _ := doReq(t, s, "GET", "/v1/nope", nil); rec.Code != 404 {
		t.Fatalf("unknown path: %d", rec.Code)
	}
	if rec, _ := doReq(t, s, "POST", "/healthz", nil); rec.Code != 405 {
		t.Fatalf("POST healthz: %d", rec.Code)
	}
}

func TestServerOversizeBody(t *testing.T) {
	s, _ := newTestServer(t)
	req := httptest.NewRequest("POST", "/v1/arrays/logs/append", &sizedReader{n: MaxBodyBytes + 2})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: %d", rec.Code)
	}
}

// sizedReader yields n zero bytes without allocating them.
type sizedReader struct{ n int64 }

func (r *sizedReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	k := int64(len(p))
	if k > r.n {
		k = r.n
	}
	for i := int64(0); i < k; i++ {
		p[i] = 0
	}
	r.n -= k
	return int(k), nil
}

// Max-flow with explicit placements plans exactly the balanced
// assignment graph.BalancedAssignment computes from the request's
// weights and locations.
func TestPlanMaxFlowExplicitLocations(t *testing.T) {
	s, arr := newTestServer(t)
	for _, c := range []struct {
		sub   string
		nodes int
		locs  [][]int
	}{
		{"heavy-0", 3, [][]int{{0, 2}, {1}, {2, 0}, {1, 2}}},
		{"heavy-2", 4, [][]int{{3}, {0, 1}, {3, 0}, {3}}},
		{"light-1", 2, [][]int{{}, {1}, {0, 1}, {0}}},
	} {
		body, err := json.Marshal(PlanRequest{Sub: c.sub, Nodes: c.nodes, Scheduler: "maxflow", Locations: c.locs})
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := doReq(t, s, "POST", "/v1/arrays/logs/plan", body)
		var resp PlanResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != 200 || err != nil {
			t.Fatalf("%s: %d %s (%v)", body, rec.Code, rec.Body, err)
		}
		want := graph.BalancedAssignment(graph.NewBipartite(c.nodes, arr.Weights(c.sub), c.locs))
		for n, np := range resp.PerNode {
			if !slices.EqualFunc(np.Blocks, want[n], func(got int32, want int) bool { return int(got) == want }) {
				t.Errorf("%s: node %d plans blocks %v, want %v", body, n, np.Blocks, want[n])
			}
		}
	}
}
