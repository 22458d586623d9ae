package server

import (
	"fmt"

	"datanet/internal/cluster"
	"datanet/internal/graph"
	"datanet/internal/hdfs"
	"datanet/internal/sched"
)

// PlanRequest asks for a full scheduling plan of one sub-dataset over a
// cluster: which node should process which block, given the ElasticMap
// weights of the current epoch. This is the job-submission-time consult the
// paper's deployment sketch describes — the scheduler queries the metadata
// service instead of scanning raw data.
type PlanRequest struct {
	// Sub is the target sub-dataset key.
	Sub string `json:"sub"`
	// Nodes is the cluster size (required, 1..MaxPlanNodes).
	Nodes int `json:"nodes"`
	// Racks is the rack count (default 1).
	Racks int `json:"racks,omitempty"`
	// Replication is the per-block replica count used when Locations is
	// empty (default 3, clamped to Nodes).
	Replication int `json:"replication,omitempty"`
	// Scheduler picks the policy by a name or alias of the scheduler table
	// (sched.Policy): "datanet" (Algorithm 1, default), "capacity",
	// "maxflow" (Ford–Fulkerson optimum), "locality" or "lpt". Validation
	// rewrites it to the canonical name, which the response echoes.
	Scheduler string `json:"scheduler,omitempty"`
	// Locations optionally gives explicit replica placements per block
	// (len must equal the array's block count). When empty, a
	// deterministic round-robin placement is synthesized.
	Locations [][]int `json:"locations,omitempty"`

	policy sched.Policy
}

// MaxPlanNodes bounds PlanRequest.Nodes so a malformed request cannot make
// the service allocate an arbitrary-size cluster model.
const MaxPlanNodes = 4096

// NodePlan is one node's share of a scheduling plan.
type NodePlan struct {
	Node   int   `json:"node"`
	Load   int64 `json:"load"`
	Blocks []int `json:"blocks"`
}

// PlanResponse is a full scheduling plan.
type PlanResponse struct {
	Epoch       uint64     `json:"epoch"`
	Sub         string     `json:"sub"`
	Scheduler   string     `json:"scheduler"`
	Nodes       int        `json:"nodes"`
	Blocks      int        `json:"blocks"`
	TotalWeight int64      `json:"totalWeight"`
	AvgLoad     float64    `json:"avgLoad"`
	MaxLoad     int64      `json:"maxLoad"`
	PerNode     []NodePlan `json:"perNode"`
}

// validate normalizes the request and reports the first problem.
func (pr *PlanRequest) validate(blocks int) error {
	if pr.Sub == "" {
		return fmt.Errorf("missing sub")
	}
	if pr.Nodes <= 0 || pr.Nodes > MaxPlanNodes {
		return fmt.Errorf("nodes must be in 1..%d", MaxPlanNodes)
	}
	if pr.Racks <= 0 {
		pr.Racks = 1
	}
	if pr.Racks > pr.Nodes {
		return fmt.Errorf("racks (%d) exceed nodes (%d)", pr.Racks, pr.Nodes)
	}
	if pr.Replication <= 0 {
		pr.Replication = 3
	}
	if pr.Replication > pr.Nodes {
		pr.Replication = pr.Nodes
	}
	if pr.Scheduler == "" {
		pr.Scheduler = sched.DataNet.String()
	}
	if err := pr.policy.Set(pr.Scheduler); err != nil {
		return err
	}
	pr.Scheduler = pr.policy.String()
	if len(pr.Locations) != 0 {
		if len(pr.Locations) != blocks {
			return fmt.Errorf("locations cover %d blocks, array has %d", len(pr.Locations), blocks)
		}
		for j, locs := range pr.Locations {
			for _, n := range locs {
				if n < 0 || n >= pr.Nodes {
					return fmt.Errorf("locations[%d] names node %d outside 0..%d", j, n, pr.Nodes-1)
				}
			}
		}
	}
	return nil
}

// locations returns the request's placements, synthesizing a deterministic
// round-robin spread (replica k of block j on node (j+k·stride) mod nodes)
// when none were given. The synthesized lists share one backing array.
func (pr *PlanRequest) locations(blocks int) [][]int {
	if len(pr.Locations) != 0 {
		return pr.Locations
	}
	stride := pr.Nodes / pr.Replication
	if stride == 0 {
		stride = 1
	}
	r := pr.Replication
	flat := make([]int, blocks*r)
	out := make([][]int, blocks)
	for j := range out {
		locs := flat[j*r : (j+1)*r : (j+1)*r]
		for k := range locs {
			locs[k] = (j + k*stride) % pr.Nodes
		}
		out[j] = locs
	}
	return out
}

// buildPlan computes the scheduling plan for req against one snapshot. It
// is a pure function of (snapshot, request), so responses are cacheable
// per epoch.
func buildPlan(sn *Snapshot, req *PlanRequest) (*PlanResponse, error) {
	nb := sn.Arr.Len()
	if err := req.validate(nb); err != nil {
		return nil, err
	}
	weights := sn.Arr.Weights(req.Sub)
	var total int64
	for _, w := range weights {
		total += w
	}
	locs := req.locations(nb)

	perNode := make([]NodePlan, req.Nodes)
	for i := range perNode {
		perNode[i] = NodePlan{Node: i, Blocks: []int{}}
	}
	assignTo := func(node, block int) {
		perNode[node].Blocks = append(perNode[node].Blocks, block)
		perNode[node].Load += weights[block]
	}

	// Max-flow assigns directly: its picker's drain would steal tasks and
	// change the plan.
	if req.policy == sched.MaxFlow {
		g := graph.NewBipartite(req.Nodes, weights, locs)
		for node, blocks := range graph.BalancedAssignment(g) {
			for _, j := range blocks {
				assignTo(node, j)
			}
		}
	} else {
		topo, err := cluster.NewHomogeneous(req.Nodes, req.Racks)
		if err != nil {
			return nil, err
		}
		replicas := 0
		for _, l := range locs {
			replicas += len(l)
		}
		ids := make([]cluster.NodeID, replicas)
		tasks := make([]sched.Task, nb)
		for j := 0; j < nb; j++ {
			nodeIDs := ids[:len(locs[j]):len(locs[j])]
			ids = ids[len(locs[j]):]
			for k, n := range locs[j] {
				nodeIDs[k] = cluster.NodeID(n)
			}
			tasks[j] = sched.Task{
				Block:     hdfs.BlockID(j),
				Index:     j,
				Weight:    weights[j],
				Bytes:     weights[j],
				Locations: nodeIDs,
			}
		}
		picker := req.policy.Factory()(tasks, topo)
		// Drain under the pull protocol, one task per node per round —
		// the deterministic equivalent of equally-fast single-slot nodes.
		for picker.Remaining() > 0 {
			progressed := false
			for n := 0; n < req.Nodes && picker.Remaining() > 0; n++ {
				if t, _, ok := picker.Next(cluster.NodeID(n)); ok {
					assignTo(n, t.Index)
					progressed = true
				}
			}
			if !progressed {
				return nil, fmt.Errorf("scheduler %q stalled with %d tasks left", req.Scheduler, picker.Remaining())
			}
		}
	}

	resp := &PlanResponse{
		Epoch:       sn.Epoch,
		Sub:         req.Sub,
		Scheduler:   req.Scheduler,
		Nodes:       req.Nodes,
		Blocks:      nb,
		TotalWeight: total,
		AvgLoad:     float64(total) / float64(req.Nodes),
		PerNode:     perNode,
	}
	for i := range perNode {
		if perNode[i].Load > resp.MaxLoad {
			resp.MaxLoad = perNode[i].Load
		}
	}
	return resp, nil
}
