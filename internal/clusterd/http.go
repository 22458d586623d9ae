package clusterd

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"

	"datanet/internal/cluster"
	"datanet/internal/elasticmap"
	"datanet/internal/obs"
	"datanet/internal/server"
)

// StaleHeader marks a read served below the shard's acked high-water
// mark: real data, but older than something a client has already seen.
const StaleHeader = "X-Datanet-Stale"

// Handler is one cluster node's HTTP face: the single-process query API
// (internal/server) wrapped in a leadership gate, with writes rerouted
// through the cluster's replication bookkeeping and an admin plane for
// topology inspection, node addition and decommissioning.
type Handler struct {
	c      *Cluster
	id     cluster.NodeID
	node   *Node
	srv    *server.Server
	tracer *obs.Tracer
	chain  http.Handler
	// OnAddNode, when set, is called (outside the cluster lock) after
	// /admin/addnode registers a member, so the serving layer can boot a
	// listener for it and record its address.
	OnAddNode func(id cluster.NodeID)
}

// NewHandler wires node id's handler. The embedded server serves straight
// from the node's snapshot store; /readyz reports ready only once the
// node is registered with the control plane and not down. Every request
// passes the observability middleware (request IDs, span ring, optional
// slog), and the node's metrics feed the cluster rollup.
func NewHandler(c *Cluster, id cluster.NodeID) (*Handler, error) {
	node, ok := c.Node(id)
	if !ok {
		return nil, errors.New("clusterd: handler for unknown node")
	}
	srv := server.New(node.Store())
	srv.SetReady(node.Ready)
	h := &Handler{c: c, id: id, node: node, srv: srv,
		tracer: obs.NewTracer(obs.DefaultRingSize, obs.DefaultSlowK)}
	h.chain = obs.Middleware(h.tracer, int(id), c.Logger(), http.HandlerFunc(h.serve))
	c.RegisterMetricsSource(id, srv.DumpMetrics)
	return h, nil
}

// Server exposes the embedded single-process server (metrics, drain).
func (h *Handler) Server() *server.Server { return h.srv }

// ServeHTTP runs every request through the observability middleware and
// into the cluster-aware router.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.chain.ServeHTTP(w, r)
}

// serve routes the cluster-aware endpoints and delegates everything
// else (healthz, readyz, metrics, per-array queries) to the embedded
// server after the leadership gate has passed.
func (h *Handler) serve(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/admin/topology":
		h.writeJSON(w, h.c.Topology())
		return
	case "/admin/stats":
		h.writeJSON(w, h.c.Stats())
		return
	case "/admin/trace":
		obs.TraceHandler(h.tracer).ServeHTTP(w, r)
		return
	case "/admin/metrics":
		h.handleRollup(w)
		return
	case "/admin/addnode":
		h.handleAddNode(w, r)
		return
	case "/admin/decommission":
		h.handleDecommission(w, r)
		return
	case "/v1/arrays":
		if r.Method == http.MethodGet {
			h.handleList(w)
			return
		}
	}
	if name, rest, ok := splitArrayPath(r.URL.Path); ok {
		if sp := obs.SpanFrom(r.Context()); sp != nil {
			sp.Request.Shard = ShardOf(name, h.c.Shards())
		}
		switch {
		case r.Method == http.MethodPost && rest == "/append":
			h.handleWrite(w, r, name, true)
			return
		case r.Method == http.MethodPut && rest == "":
			h.handleWrite(w, r, name, false)
			return
		default:
			// Reads: gate on leadership and flag staleness, then let the
			// embedded server answer from the same store.
			sn, stale, err := h.c.ReadAt(h.id, name)
			if err != nil {
				server.WriteError(w, h.clusterError(err))
				return
			}
			if stale {
				w.Header().Set(StaleHeader, "true")
				if sp := obs.SpanFrom(r.Context()); sp != nil {
					sp.Request.Stale = true
				}
			}
			_ = sn
		}
	}
	h.srv.ServeHTTP(w, r)
}

// handleRollup is GET /admin/metrics: the cluster-wide Prometheus view.
// Per-node dumps merge losslessly (counters sum, histograms merge
// observation-exactly, ascending node order), so this exposition equals
// what a scraper would compute by summing every node's /metrics — the
// rollup-equality test pins that. Per-process Go runtime gauges are left
// out (not mergeable); cluster control-plane counters and per-shard
// gauges follow under the datanet_cluster_ prefix.
func (h *Handler) handleRollup(w http.ResponseWriter) {
	merged := server.MergeDumps(h.c.MetricsDumps()...)
	out := server.RenderProm(merged, false)

	st := h.c.Stats()
	tv := h.c.Topology()
	p := obs.NewProm()
	p.Family("datanet_cluster_promotions_total", "counter", "Shard primary promotions (failover elections).")
	p.AddInt("datanet_cluster_promotions_total", nil, uint64(st.Promotions))
	p.Family("datanet_cluster_handoffs_total", "counter", "Graceful primary handoffs during decommission.")
	p.AddInt("datanet_cluster_handoffs_total", nil, uint64(st.Handoffs))
	p.Family("datanet_cluster_ships_delivered_total", "counter", "Replica shipments applied by followers.")
	p.AddInt("datanet_cluster_ships_delivered_total", nil, uint64(st.ShipsDelivered))
	p.Family("datanet_cluster_ships_dropped_total", "counter", "Replica shipments dropped by fencing or membership churn.")
	p.AddInt("datanet_cluster_ships_dropped_total", nil, uint64(st.DroppedShips))
	p.Family("datanet_cluster_suspicions_total", "counter", "Matured failure-detector suspicions.")
	p.AddInt("datanet_cluster_suspicions_total", nil, uint64(st.Suspicions))
	p.Family("datanet_cluster_topology_gen", "gauge", "Topology generation; bumps on every role or membership change.")
	p.AddInt("datanet_cluster_topology_gen", nil, tv.Gen)
	p.Family("datanet_cluster_nodes", "gauge", "Current member count.")
	p.AddInt("datanet_cluster_nodes", nil, uint64(len(tv.Nodes)))
	p.Family("datanet_cluster_shard_primary", "gauge", "Primary node of each shard, -1 while leaderless.")
	for _, sv := range tv.Map {
		p.Add("datanet_cluster_shard_primary", []obs.Label{{K: "shard", V: strconv.Itoa(sv.Shard)}}, float64(sv.Primary))
	}
	p.Family("datanet_cluster_shard_fence", "counter", "Fencing token of each shard; bumps on leadership change.")
	for _, sv := range tv.Map {
		p.AddInt("datanet_cluster_shard_fence", []obs.Label{{K: "shard", V: strconv.Itoa(sv.Shard)}}, sv.Fence)
	}

	w.Header().Set("Content-Type", obs.PromContentType)
	w.Write(append(out, p.Bytes()...))
}

// handleWrite is the cluster append/put path: decode, route through the
// cluster (leadership check, fencing, replication bookkeeping), respond
// in the single-process shape so clients cannot tell the modes apart.
func (h *Handler) handleWrite(w http.ResponseWriter, r *http.Request, name string, isAppend bool) {
	if err := h.srv.BeginWrite(); err != nil {
		server.WriteError(w, err)
		return
	}
	defer h.srv.EndWrite()
	blob, err := io.ReadAll(io.LimitReader(r.Body, server.MaxBodyBytes+1))
	if err != nil || len(blob) > server.MaxBodyBytes {
		server.WriteError(w, errors.New("bad request body"))
		return
	}
	arr, err := elasticmap.Decode(blob)
	if err != nil {
		server.WriteError(w, errors.New("decoding array: "+err.Error()))
		return
	}
	var sn *server.Snapshot
	if isAppend {
		sn, err = h.c.AppendAt(h.id, name, arr)
	} else {
		sn, err = h.c.PutAt(h.id, name, arr)
	}
	if err != nil {
		server.WriteError(w, h.clusterError(err))
		return
	}
	h.writeJSON(w, map[string]any{"name": name, "epoch": sn.Epoch, "blocks": sn.Arr.Len()})
}

// handleList filters the node's catalog to the shards it leads: follower
// replicas exist on this store but are not served.
func (h *Handler) handleList(w http.ResponseWriter) {
	led := map[int]bool{}
	for _, si := range h.node.LedShards() {
		led[si] = true
	}
	store := h.node.Store()
	infos := []server.ArrayInfo{}
	for _, name := range store.Names() {
		if !led[ShardOf(name, h.c.Shards())] {
			continue
		}
		if sn, ok := store.Get(name); ok {
			infos = append(infos, server.InfoOf(sn))
		}
	}
	h.writeJSON(w, map[string]any{"arrays": infos})
}

func (h *Handler) handleAddNode(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteError(w, errors.New("addnode wants POST"))
		return
	}
	id := h.c.AddNode()
	if h.OnAddNode != nil {
		h.OnAddNode(id)
	}
	var addr string
	for _, nv := range h.c.Topology().Nodes {
		if nv.ID == int(id) {
			addr = nv.Addr
		}
	}
	h.writeJSON(w, map[string]any{"id": int(id), "addr": addr})
}

func (h *Handler) handleDecommission(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteError(w, errors.New("decommission wants POST"))
		return
	}
	id, err := strconv.Atoi(r.URL.Query().Get("node"))
	if err != nil {
		server.WriteError(w, errors.New("bad or missing node parameter"))
		return
	}
	if err := h.c.Decommission(cluster.NodeID(id)); err != nil {
		server.WriteError(w, err)
		return
	}
	h.writeJSON(w, map[string]any{"ok": true, "node": id})
}

// clusterError maps routing errors to the typed 503/404 shapes clients
// retry on (or don't).
func (h *Handler) clusterError(err error) error {
	hint := h.c.RetryHint()
	switch {
	case errors.Is(err, ErrNotLeader):
		return server.Unavailable("not_leader", hint, "%v", err)
	case errors.Is(err, ErrNoLeader):
		return server.Unavailable("no_leader", hint, "%v", err)
	case errors.Is(err, ErrNodeDown):
		return server.Unavailable("node_down", hint, "%v", err)
	case errors.Is(err, ErrUnknownArray):
		return server.NotFound("%v", err)
	}
	return err
}

func (h *Handler) writeJSON(w http.ResponseWriter, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		blob = []byte(`{"error":"encoding failure"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(blob, '\n'))
}

// splitArrayPath cuts "/v1/arrays/{name}[/op]" into name and the op
// suffix ("" for the bare array path).
func splitArrayPath(path string) (name, rest string, ok bool) {
	tail, ok := strings.CutPrefix(path, "/v1/arrays/")
	if !ok || tail == "" {
		return "", "", false
	}
	if i := strings.IndexByte(tail, '/'); i >= 0 {
		return tail[:i], tail[i:], tail[:i] != ""
	}
	return tail, "", true
}
