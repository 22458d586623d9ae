package clusterd

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"datanet/internal/cluster"
	"datanet/internal/elasticmap"
	"datanet/internal/server"
	"datanet/internal/trace"
)

// httpCluster boots a cluster with one httptest server per node and
// returns the cluster plus per-node test servers.
func httpCluster(t *testing.T, cfg Config, n int) (*Cluster, map[cluster.NodeID]*httptest.Server) {
	t.Helper()
	c, err := New(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	srvs := map[cluster.NodeID]*httptest.Server{}
	for _, id := range c.MemberIDs() {
		h, err := NewHandler(c, id)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		srvs[id] = ts
		c.SetAddr(id, ts.Listener.Addr().String())
	}
	return c, srvs
}

func TestHandlerRoutesAndGates(t *testing.T) {
	cfg := testConfig(2, 1)
	c, srvs := httpCluster(t, cfg, 3)
	names := testNames(4)
	seed(t, c, names)
	name := names[0]
	si := ShardOf(name, cfg.Shards)
	primary := cluster.NodeID(c.Topology().Map[si].Primary)

	get := func(id cluster.NodeID, path string) (*http.Response, []byte) {
		resp, err := http.Get(srvs[id].URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// Leader serves the read; the estimate answer has the usual shape.
	resp, body := get(primary, "/v1/arrays/"+name+"/estimate?sub="+name)
	if resp.StatusCode != 200 {
		t.Fatalf("estimate at leader: %d %s", resp.StatusCode, body)
	}
	// Non-leaders refuse with the typed 503 and a Retry-After hint.
	for _, id := range c.MemberIDs() {
		if id == primary {
			continue
		}
		resp, body := get(id, "/v1/arrays/"+name+"/estimate?sub="+name)
		if resp.StatusCode != 503 {
			t.Fatalf("estimate at non-leader %d: %d %s", id, resp.StatusCode, body)
		}
		var eb server.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "not_leader" {
			t.Fatalf("non-leader body %s (err %v)", body, err)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("non-leader 503 missing Retry-After")
		}
	}

	// The catalog listing is filtered to led shards.
	for _, id := range c.MemberIDs() {
		resp, body := get(id, "/v1/arrays")
		if resp.StatusCode != 200 {
			t.Fatalf("arrays at %d: %d", id, resp.StatusCode)
		}
		var listing struct {
			Arrays []struct {
				Name string `json:"name"`
			} `json:"arrays"`
		}
		if err := json.Unmarshal(body, &listing); err != nil {
			t.Fatal(err)
		}
		nd, _ := c.Node(id)
		led := map[int]bool{}
		for _, s := range nd.LedShards() {
			led[s] = true
		}
		for _, ai := range listing.Arrays {
			if !led[ShardOf(ai.Name, cfg.Shards)] {
				t.Fatalf("node %d lists %q from a shard it does not lead", id, ai.Name)
			}
		}
	}

	// Appends via HTTP replicate exactly like direct ones.
	payload, err := elasticmap.Encode(tinyArray(name, 5))
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(srvs[primary].URL+"/v1/arrays/"+name+"/append", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var ar struct {
		Epoch uint64 `json:"epoch"`
	}
	json.NewDecoder(resp2.Body).Decode(&ar)
	resp2.Body.Close()
	if resp2.StatusCode != 200 || ar.Epoch != 2 {
		t.Fatalf("append via HTTP: %d epoch %d", resp2.StatusCode, ar.Epoch)
	}
	tickUntilConverged(t, c, 0, 5)

	// Topology and stats admin endpoints answer on any node.
	resp3, body3 := get(c.MemberIDs()[1], "/admin/topology")
	if resp3.StatusCode != 200 {
		t.Fatalf("admin/topology: %d", resp3.StatusCode)
	}
	var tv TopologyView
	if err := json.Unmarshal(body3, &tv); err != nil || tv.Shards != cfg.Shards {
		t.Fatalf("topology body %s (err %v)", body3, err)
	}
	if tv.Nodes[0].Addr == "" {
		t.Fatal("topology missing node addresses")
	}
}

func TestHandlerStaleHeaderAfterFailover(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.ShipDelay = 6 // orphan the acked epoch, as in the direct test
	c, srvs := httpCluster(t, cfg, 4)
	name := "orphan-me"
	if err := c.Load(name, tinyArray(name, 10)); err != nil {
		t.Fatal(err)
	}
	primary := cluster.NodeID(c.Topology().Map[0].Primary)
	if _, err := c.Append(name, tinyArray(name, 5)); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(primary); err != nil {
		t.Fatal(err)
	}
	now := 0.0
	for i := 0; i < 10 && cluster.NodeID(c.Topology().Map[0].Primary) == primary; i++ {
		now++
		c.Tick(now)
	}
	winner := cluster.NodeID(c.Topology().Map[0].Primary)
	if winner == primary || winner < 0 {
		t.Fatalf("no failover: %+v", c.Topology().Map[0])
	}
	resp, err := http.Get(srvs[winner].URL + "/v1/arrays/" + name)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get(server.StaleHeader) != "true" {
		t.Fatalf("post-failover read: %d stale header %q, want 200 + true",
			resp.StatusCode, resp.Header.Get(server.StaleHeader))
	}
	// A fresh append clears the flag.
	if _, err := c.Append(name, tinyArray(name, 1)); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(srvs[winner].URL + "/v1/arrays/" + name)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get(server.StaleHeader) != "" {
		t.Fatal("stale header survived a fresh append")
	}
}

func TestHandlerAdminDecommission(t *testing.T) {
	cfg := testConfig(2, 1)
	c, srvs := httpCluster(t, cfg, 3)
	seed(t, c, testNames(4))
	victim := c.MemberIDs()[0]
	other := c.MemberIDs()[1]
	resp, err := http.Post(srvs[other].URL+"/admin/decommission?node="+strconv.Itoa(int(victim)), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("admin/decommission: %d", resp.StatusCode)
	}
	tickUntilConverged(t, c, 0, 30)
	for _, id := range c.MemberIDs() {
		if id == victim {
			t.Fatal("decommissioned node still a member")
		}
	}
}

var updateTopology = flag.Bool("update", false, "rewrite testdata/topology.golden")

// The /admin/topology body through a crash, its suspicion and the node's
// rejoin, then a second crash whose suspected victim is decommissioned (a
// member both leaving and suspected) and the drain to convergence: every
// distinct body is pinned byte for byte, so the belief behind the
// "suspected" and "leaving" flags can change representation but not value.
func TestAdminTopologyBytes(t *testing.T) {
	c, err := New(testConfig(2, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	seed(t, c, testNames(4))
	h, err := NewHandler(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	last, now := "", 0.0
	snap := func(step string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/topology", nil))
		if body := rec.Body.String(); body != last {
			fmt.Fprintf(&got, "t=%g %s: %s", now, step, body)
			last = body
		}
	}
	tick := func(n int, step string) {
		for i := 0; i < n; i++ {
			now++
			c.Tick(now)
			snap(step)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	snap("boot")
	must(c.Crash(0))
	tick(5, "crash 0")
	must(c.Rejoin(0))
	snap("rejoin 0")
	tick(3, "after rejoin 0")
	must(c.Crash(1))
	tick(5, "crash 1")
	// Appends in flight keep the staying followers behind, so the leaving
	// suspected member stays listed until they land.
	for _, name := range testNames(4) {
		_, err := c.Append(name, tinyArray(name, 2))
		must(err)
	}
	must(c.Decommission(1))
	snap("decommission 1")
	tick(30, "drain")
	must(c.Converged())

	path := filepath.Join("testdata", "topology.golden")
	if *updateTopology {
		must(os.MkdirAll("testdata", 0o755))
		must(os.WriteFile(path, got.Bytes(), 0o644))
	}
	want, err := os.ReadFile(path)
	must(err)
	if got.String() != string(want) {
		t.Errorf("/admin/topology bodies differ from %s:\n got:\n%s\nwant:\n%s", path, got.String(), want)
	}
}

// call sends one request to url and returns the status and body.
func call(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// spans dumps a node's /admin/trace ring.
func spans(t *testing.T, base string) []trace.Event {
	t.Helper()
	_, body := call(t, "GET", base+"/admin/trace", nil)
	var out []trace.Event
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev trace.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

// A handler built at boot must answer from its node's current store: after
// the node crashes, restarts empty, catches up as a follower and wins the
// shard back, it serves the cluster's latest epoch, not its pre-crash one.
func TestHandlerFollowsRejoin(t *testing.T) {
	c, srvs := httpCluster(t, testConfig(1, 1), 2)
	name := "comeback"
	if err := c.Load(name, tinyArray(name, 10)); err != nil {
		t.Fatal(err)
	}
	first := cluster.NodeID(c.Topology().Map[0].Primary)
	other := 1 - first
	now := 0.0
	failTo := func(want cluster.NodeID) {
		t.Helper()
		for i := 0; i < 10 && cluster.NodeID(c.Topology().Map[0].Primary) != want; i++ {
			now++
			c.Tick(now)
		}
		if got := cluster.NodeID(c.Topology().Map[0].Primary); got != want {
			t.Fatalf("primary %d, want %d", got, want)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Crash(first))
	failTo(other)
	_, err := c.Append(name, tinyArray(name, 2)) // epoch 2
	must(err)
	must(c.Rejoin(first))
	_, err = c.Append(name, tinyArray(name, 2)) // epoch 3
	must(err)
	now = tickUntilConverged(t, c, now, 10)
	must(c.Crash(other))
	failTo(first)

	sn, _, err := c.Read(name)
	must(err)
	code, body := call(t, "GET", srvs[first].URL+"/v1/arrays/"+name, nil)
	var info struct {
		Epoch uint64 `json:"epoch"`
	}
	if json.Unmarshal(body, &info); code != 200 || sn.Epoch != 3 || info.Epoch != sn.Epoch {
		t.Fatalf("boot-time handler after failback: %d epoch %d, cluster epoch %d (want 3): %s", code, info.Epoch, sn.Epoch, body)
	}
}

// Cluster writes take the server's instrumented routes: an append and a
// put on the primary count under their endpoints in /v1/metrics and their
// request events carry the route; a non-leader's refusal counts as an
// error of its endpoint.
func TestHandlerCountsWrites(t *testing.T) {
	cfg := testConfig(2, 1)
	c, srvs := httpCluster(t, cfg, 3)
	name := testNames(1)[0]
	seed(t, c, []string{name})
	primary := cluster.NodeID(c.Topology().Map[ShardOf(name, cfg.Shards)].Primary)
	payload, err := elasticmap.Encode(tinyArray(name, 3))
	if err != nil {
		t.Fatal(err)
	}
	base := srvs[primary].URL
	if code, body := call(t, "POST", base+"/v1/arrays/"+name+"/append", payload); code != 200 {
		t.Fatalf("append: %d %s", code, body)
	}
	if code, body := call(t, "PUT", base+"/v1/arrays/"+name, payload); code != 200 {
		t.Fatalf("put: %d %s", code, body)
	}
	var m server.MetricsDump
	_, body := call(t, "GET", base+"/v1/metrics", nil)
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"append", "put"} {
		if e := m.Endpoints[ep]; e.Requests != 1 || e.Errors != 0 {
			t.Errorf("/v1/metrics %s: %d requests %d errors, want 1 and 0", ep, e.Requests, e.Errors)
		}
	}
	routes := map[string]string{}
	for _, ev := range spans(t, base) {
		routes[ev.Request.Method] = ev.Detail
	}
	if routes["POST"] != "append" || routes["PUT"] != "put" {
		t.Errorf("write events labelled %v, want POST=append PUT=put", routes)
	}

	follower := srvs[(primary+1)%3]
	if code, _ := call(t, "POST", follower.URL+"/v1/arrays/"+name+"/append", payload); code != 503 {
		t.Fatalf("append at a non-leader: %d, want 503", code)
	}
	_, body = call(t, "GET", follower.URL+"/v1/metrics", nil)
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if e := m.Endpoints["append"]; e.Requests != 1 || e.Errors != 1 {
		t.Errorf("non-leader append: %d requests %d errors, want 1 and 1", e.Requests, e.Errors)
	}
}

// zeros yields n zero bytes without holding them.
type zeros int64

func (z *zeros) Read(p []byte) (int, error) {
	if *z <= 0 {
		return 0, io.EOF
	}
	n := min(int64(len(p)), int64(*z))
	clear(p[:n])
	*z -= zeros(n)
	return int(n), nil
}

// An oversize write body gets the single server's 413, not a 400.
func TestHandlerOversizeAppend(t *testing.T) {
	c, err := New(testConfig(1, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	seed(t, c, []string{"big"})
	h, err := NewHandler(c, cluster.NodeID(c.Topology().Map[0].Primary))
	if err != nil {
		t.Fatal(err)
	}
	body := zeros(server.MaxBodyBytes + 1)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/arrays/big/append", &body))
	if rec.Code != http.StatusRequestEntityTooLarge || !bytes.Contains(rec.Body.Bytes(), []byte("body exceeds limit")) {
		t.Fatalf("oversize append: %d %s", rec.Code, rec.Body.String())
	}
}

// Admin routes sit beside the span wrapper: scraping a node leaves no
// span of its own in the node's ring.
func TestAdminScrapesLeaveNoSpans(t *testing.T) {
	c, srvs := httpCluster(t, testConfig(2, 1), 3)
	seed(t, c, testNames(2))
	base := srvs[0].URL
	call(t, "GET", base+"/healthz", nil)
	for _, path := range []string{"/admin/trace", "/admin/metrics", "/admin/topology"} {
		if code, _ := call(t, "GET", base+path, nil); code != 200 {
			t.Fatalf("%s: %d", path, code)
		}
	}
	evs := spans(t, base)
	if len(evs) != 1 || evs[0].Request.Path != "/healthz" {
		t.Fatalf("span ring after admin scrapes holds %d events, want only /healthz: %+v", len(evs), evs)
	}
}

// A member that has left the cluster is not ready, though its listener
// still answers.
func TestRemovedMemberNotReady(t *testing.T) {
	c, srvs := httpCluster(t, testConfig(2, 1), 3)
	seed(t, c, testNames(4))
	victim := c.MemberIDs()[0]
	if code, body := call(t, "GET", srvs[victim].URL+"/readyz", nil); code != 200 {
		t.Fatalf("readyz before decommission: %d %s", code, body)
	}
	if err := c.Decommission(victim); err != nil {
		t.Fatal(err)
	}
	tickUntilConverged(t, c, 0, 30)
	if _, ok := c.Node(victim); ok {
		t.Fatal("decommissioned node still a member")
	}
	code, body := call(t, "GET", srvs[victim].URL+"/readyz", nil)
	var eb server.ErrorBody
	if json.Unmarshal(body, &eb); code != 503 || eb.Kind != "not_ready" {
		t.Fatalf("readyz after leaving: %d %s, want 503 not_ready", code, body)
	}
}

// Concurrent HTTP appends and reads on one node's handler all pass through
// its catalog: every append lands exactly one epoch and is counted once.
func TestHandlerConcurrentWrites(t *testing.T) {
	c, err := New(testConfig(1, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	name := "busy"
	seed(t, c, []string{name})
	h, err := NewHandler(c, cluster.NodeID(c.Topology().Map[0].Primary))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := elasticmap.Encode(tinyArray(name, 1))
	if err != nil {
		t.Fatal(err)
	}
	const clients, each = 4, 10
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/arrays/"+name+"/append", bytes.NewReader(payload)))
				if rec.Code != 200 {
					t.Errorf("append: %d %s", rec.Code, rec.Body.String())
				}
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/arrays/"+name+"/estimate?sub="+name, nil))
				if rec.Code != 200 {
					t.Errorf("estimate: %d %s", rec.Code, rec.Body.String())
				}
			}
		}()
	}
	wg.Wait()
	sn, _, err := c.Read(name)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Epoch != 1+clients*each {
		t.Fatalf("after %d appends: epoch %d, want %d", clients*each, sn.Epoch, 1+clients*each)
	}
	if e := h.Server().DumpMetrics().Endpoints["append"]; e.Requests != clients*each || e.Errors != 0 {
		t.Fatalf("append metrics %+v, want %d requests", e, clients*each)
	}
}
