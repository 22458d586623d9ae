package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"datanet/internal/cluster"
	"datanet/internal/clusterd"
	"datanet/internal/detect"
	"datanet/internal/faults"
	"datanet/internal/obs"
	"datanet/internal/server"
)

// Wall-clock cluster timing: the control loop ticks every tickEvery, so
// heartbeats, suspicion sweeps and shipment delivery all advance on that
// cadence. ShipDelay is one tick — replication is asynchronous but tight.
const (
	clusterTickEvery    = 100 * time.Millisecond
	clusterHBInterval   = 0.5 // seconds
	clusterHBTimeout    = 1.5
	clusterShipDelaySec = 0.1
)

// clusterServer owns the per-node listeners of a `datanet serve -cluster`
// process: one HTTP server per cluster node, all backed by the same
// control plane, plus the wall-clock tick loop that drives heartbeats,
// failure detection and snapshot shipping.
type clusterServer struct {
	mu       sync.Mutex
	c        *clusterd.Cluster
	host     string
	pprof    bool
	handlers map[cluster.NodeID]*clusterd.Handler
	srvs     map[cluster.NodeID]*http.Server
}

// bootNode wires node id's handler to a fresh listener and registers its
// address with the control plane so /admin/topology routes to it.
func (cs *clusterServer) bootNode(id cluster.NodeID, addr string) (string, error) {
	h, err := clusterd.NewHandler(cs.c, id)
	if err != nil {
		return "", err
	}
	// New members added at runtime via /admin/addnode get their own
	// listener on an ephemeral port.
	h.OnAddNode = func(nid cluster.NodeID) {
		if _, err := cs.bootNode(nid, net.JoinHostPort(cs.host, "0")); err != nil {
			fmt.Fprintf(os.Stderr, "datanet: serve: booting added node %d: %v\n", nid, err)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: withPprof(h, cs.pprof)}
	go srv.Serve(ln)
	cs.c.SetAddr(id, ln.Addr().String())
	cs.mu.Lock()
	cs.handlers[id] = h
	cs.srvs[id] = srv
	cs.mu.Unlock()
	return ln.Addr().String(), nil
}

// shutdown drains in-flight appends on every node, then closes the
// listeners.
func (cs *clusterServer) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var first error
	for _, h := range cs.handlers {
		if err := h.Server().Drain(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, srv := range cs.srvs {
		if err := srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// serveCluster is the -cluster N serving mode: the catalog is sharded
// across N nodes with K followers per shard, each node serving the same
// HTTP API behind a leadership gate, and an admin plane for topology,
// node addition and decommissioning. The first node takes the requested
// address; the rest bind ephemeral ports on the same host.
func serveCluster(ctx context.Context, f *serveFlags, ready func(addr string)) error {
	c, err := clusterd.New(clusterd.Config{
		Shards: f.shards, Replicas: f.replicas, CacheSize: f.cache,
		Detect: detect.Config{
			Mode: detect.Heartbeat, Interval: clusterHBInterval, Timeout: clusterHBTimeout,
		},
		ShipDelay: clusterShipDelaySec,
		Logger:    f.logger,
	}, f.cluster)
	if err != nil {
		return err
	}
	for _, m := range f.metas {
		if err := c.Load(m.Name, m.Arr); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "serve: loaded %q from %s (%d blocks, shard %d)\n",
			m.Name, m.Path, m.Arr.Len(), clusterd.ShardOf(m.Name, f.shards))
	}
	host, _, err := net.SplitHostPort(f.addr)
	if err != nil {
		return fmt.Errorf("bad -addr %q: %w", f.addr, err)
	}
	cs := &clusterServer{
		c: c, host: host, pprof: f.pprof,
		handlers: map[cluster.NodeID]*clusterd.Handler{},
		srvs:     map[cluster.NodeID]*http.Server{},
	}
	defer cs.shutdown()
	var seedAddr string
	for i, id := range c.MemberIDs() {
		nodeAddr := net.JoinHostPort(host, "0")
		if i == 0 {
			nodeAddr = f.addr
		}
		bound, err := cs.bootNode(id, nodeAddr)
		if err != nil {
			return err
		}
		if i == 0 {
			seedAddr = bound
		}
		fmt.Fprintf(stdout, "serve: node %d listening on http://%s\n", id, bound)
	}
	fmt.Fprintf(stdout, "serve: cluster of %d nodes, %d shards, %d replicas per shard; topology at http://%s/admin/topology\n",
		f.cluster, f.shards, f.replicas, seedAddr)
	if ready != nil {
		ready(seedAddr)
	}
	start := time.Now()
	ticker := time.NewTicker(clusterTickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return cs.shutdown()
		case <-ticker.C:
			c.Tick(time.Since(start).Seconds())
		}
	}
}

// loadgenRouter resolves which node a request must hit in cluster mode
// and retries the typed 503s a failover window legally produces. In
// single-server mode (no /admin/topology) it degrades to a passthrough.
type loadgenRouter struct {
	client *http.Client
	// seed is the base URL loadgen was pointed at; always a valid place
	// to re-fetch topology from.
	seed string
	// policy reuses the engine's capped-exponential retry semantics,
	// scaled to wall-clock seconds.
	policy faults.RetryPolicy

	mu        sync.Mutex
	clustered bool
	shards    int
	primaries map[int]string // shard -> base URL of its primary
	nodes     []string       // base URL of every addressed member
}

// newLoadgenRouter probes the target: a /admin/topology answer makes it
// shard-aware, anything else leaves it a passthrough.
func newLoadgenRouter(client *http.Client, seed string) *loadgenRouter {
	r := &loadgenRouter{
		client: client, seed: seed,
		policy: faults.RetryPolicy{MaxAttempts: 4, Backoff: 0.05, MaxDelay: 0.5},
	}
	r.refresh()
	return r
}

// refresh re-reads the shard map; it is the recovery step between
// retries, so a promoted primary is picked up mid-run.
func (r *loadgenRouter) refresh() {
	var tv clusterd.TopologyView
	if err := getJSON(r.client, r.seed+"/admin/topology", &tv); err != nil || tv.Shards == 0 {
		return
	}
	addrs := map[int]string{}
	var nodes []string
	for _, nv := range tv.Nodes {
		if nv.Addr != "" {
			addrs[nv.ID] = "http://" + nv.Addr
			nodes = append(nodes, addrs[nv.ID])
		}
	}
	primaries := map[int]string{}
	for _, sv := range tv.Map {
		if sv.Primary >= 0 {
			if a, ok := addrs[sv.Primary]; ok {
				primaries[sv.Shard] = a
			}
		}
	}
	r.mu.Lock()
	r.clustered, r.shards, r.primaries, r.nodes = true, tv.Shards, primaries, nodes
	r.mu.Unlock()
}

// listArrays unions the /v1/arrays listings of every node in the topology
// (each lists only the shards it leads) into one sorted name list, or
// lists the seed alone when it has no topology. A cluster node failing
// mid-failover is skipped; a single server's failure is an error.
func (r *loadgenRouter) listArrays() ([]string, error) {
	r.mu.Lock()
	clustered, bases := r.clustered, r.nodes
	r.mu.Unlock()
	if !clustered {
		bases = []string{r.seed}
	}
	seen := map[string]bool{}
	for _, base := range bases {
		var catalog struct {
			Arrays []struct {
				Name string `json:"name"`
			} `json:"arrays"`
		}
		if err := getJSON(r.client, base+"/v1/arrays", &catalog); err != nil {
			if !clustered {
				return nil, err
			}
			continue
		}
		for _, a := range catalog.Arrays {
			seen[a.Name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// baseFor returns the base URL serving array name right now.
func (r *loadgenRouter) baseFor(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.clustered {
		return r.seed
	}
	if base, ok := r.primaries[clusterd.ShardOf(name, r.shards)]; ok {
		return base
	}
	return r.seed
}

// do executes one loadgen request against whichever node currently
// serves the array, retrying the typed failover 503s with the capped
// exponential backoff of faults.RetryPolicy (refreshing the shard map
// between attempts so a promoted primary is found). Each attempt carries
// the request ID and attempt number, so server-side spans correlate with
// the loadgen mix and count retries. The returned status and body are
// the final exchange — what the digest should hash; retryKinds lists the
// typed-503 kind behind each retry, for the retries-by-kind report.
func (r *loadgenRouter) do(q genRequest, name string) (status int, body []byte, retryKinds []string, err error) {
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequest(q.method, r.baseFor(name)+q.path, bytes.NewReader(q.body))
		if err != nil {
			return 0, nil, retryKinds, err
		}
		if q.id != "" {
			req.Header.Set(obs.RequestIDHeader, q.id)
			req.Header.Set(obs.AttemptHeader, strconv.Itoa(attempt))
		}
		resp, err := r.client.Do(req)
		if err != nil {
			return 0, nil, retryKinds, err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return 0, nil, retryKinds, rerr
		}
		if kind, ok := retryable503(resp.StatusCode, body); ok && attempt < r.policy.MaxAttempts {
			retryKinds = append(retryKinds, kind)
			time.Sleep(time.Duration(r.policy.Delay(attempt) * float64(time.Second)))
			r.refresh()
			continue
		}
		return resp.StatusCode, body, retryKinds, nil
	}
}

// retryable503 reports whether a response is a typed failover-window 503
// worth retrying after a topology refresh, and which kind it was.
func retryable503(status int, body []byte) (string, bool) {
	if status != http.StatusServiceUnavailable {
		return "", false
	}
	var eb server.ErrorBody
	if json.Unmarshal(body, &eb) != nil {
		return "", false
	}
	switch eb.Kind {
	case "not_leader", "no_leader", "node_down", "draining", "not_ready":
		return eb.Kind, true
	}
	return "", false
}
