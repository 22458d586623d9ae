package clusterd

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"datanet/internal/cluster"
	"datanet/internal/elasticmap"
	"datanet/internal/server"
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
			Arrays []server.ArrayInfo `json:"arrays"`
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
	if resp.StatusCode != 200 || resp.Header.Get(StaleHeader) != "true" {
		t.Fatalf("post-failover read: %d stale header %q, want 200 + true",
			resp.StatusCode, resp.Header.Get(StaleHeader))
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
	if resp2.Header.Get(StaleHeader) != "" {
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
