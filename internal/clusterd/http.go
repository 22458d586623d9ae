package clusterd

import (
	"errors"
	"net/http"
	"strconv"

	"datanet/internal/cluster"
	"datanet/internal/obs"
	"datanet/internal/server"
)

// Handler is one cluster node's HTTP face: the single-process query API
// (internal/server) answering from the node's catalog — the leadership
// gate, the led-shard listing and the fenced write path — and beside it
// the cluster admin plane for topology inspection, the metrics rollup,
// node addition and decommissioning.
type Handler struct {
	c   *Cluster
	srv *server.Server
	// OnAddNode, when set, is called (outside the cluster lock) after
	// /admin/addnode registers a member, so the serving layer can boot a
	// listener for it and record its address.
	OnAddNode func(id cluster.NodeID)
}

// NewHandler wires node id's handler. The embedded server answers from
// the node's catalog, so a handler built at boot follows the node through
// a restart's fresh store, and spans every request with the node and its
// array's shard (logged through the cluster's logger); the node's metrics
// feed the cluster rollup.
func NewHandler(c *Cluster, id cluster.NodeID) (*Handler, error) {
	if _, ok := c.Node(id); !ok {
		return nil, errors.New("clusterd: handler for unknown node")
	}
	srv := server.New(nodeCatalog{c: c, id: id})
	srv.Logger = c.Logger()
	c.RegisterMetricsSource(id, srv.DumpMetrics)
	return &Handler{c: c, srv: srv}, nil
}

// Server exposes the embedded single-process server (metrics, drain).
func (h *Handler) Server() *server.Server { return h.srv }

// ServeHTTP answers the cluster admin routes unspanned, so scraping never
// perturbs the numbers being scraped, and passes everything else to the
// embedded server (which answers /admin/trace unspanned too).
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/admin/topology":
		server.WriteJSON(w, http.StatusOK, h.c.Topology())
	case "/admin/stats":
		server.WriteJSON(w, http.StatusOK, h.c.Stats())
	case "/admin/metrics":
		h.handleRollup(w)
	case "/admin/addnode":
		h.handleAddNode(w, r)
	case "/admin/decommission":
		h.handleDecommission(w, r)
	default:
		h.srv.ServeHTTP(w, r)
	}
}

// handleRollup is GET /admin/metrics: the cluster-wide Prometheus view.
// Per-node dumps merge losslessly (counters sum, histograms add their
// counters, ascending node order), so this exposition equals
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
	server.WriteJSON(w, http.StatusOK, map[string]any{"id": int(id), "addr": addr})
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
	server.WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "node": id})
}
