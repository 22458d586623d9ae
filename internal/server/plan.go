package server

import (
	"fmt"
	"slices"

	"datanet/internal/cluster"
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

// spread fills ids with the synthesized placements, pr.Replication
// entries per block in block order: a deterministic round-robin spread,
// replica k of block j on node (j+k·stride) mod nodes.
func spread(pr *PlanRequest, ids []cluster.NodeID) {
	r, stride := pr.Replication, max(pr.Nodes/pr.Replication, 1)
	first := 0 // the block's index mod nodes
	for locs := ids; len(locs) >= r; locs = locs[r:] {
		n := first
		for k := range locs[:r] {
			locs[k] = cluster.NodeID(n)
			if n += stride; n >= pr.Nodes {
				n -= pr.Nodes
			}
		}
		if first++; first == pr.Nodes {
			first = 0
		}
	}
}

// tasks renders the blocks as a picker's input, one task per block at the
// request's placements (synthesized when none were given). Every task's
// replica NodeIDs are carved from one backing array.
func (pr *PlanRequest) tasks(weights []int64) []sched.Task {
	tasks := make([]sched.Task, len(weights))
	for j, w := range weights {
		tasks[j] = sched.Task{Block: hdfs.BlockID(j), Index: j, Weight: w, Bytes: w}
	}
	if len(pr.Locations) != 0 {
		n := 0
		for _, locs := range pr.Locations {
			n += len(locs)
		}
		ids := make([]cluster.NodeID, n)
		for j, locs := range pr.Locations {
			nodeIDs := ids[:len(locs):len(locs)]
			ids = ids[len(locs):]
			for k, node := range locs {
				nodeIDs[k] = cluster.NodeID(node)
			}
			tasks[j].Locations = nodeIDs
		}
		return tasks
	}
	r := pr.Replication
	ids := make([]cluster.NodeID, len(tasks)*r)
	spread(pr, ids)
	for j := range tasks {
		tasks[j].Locations = ids[j*r : (j+1)*r : (j+1)*r]
	}
	return tasks
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
	tasks := req.tasks(weights)

	// The assignment in the order it was made: block seq[k] went to node
	// to[k].
	to := make([]int32, 0, nb)
	seq := make([]int32, 0, nb)
	// Max-flow assigns directly: its picker's drain would steal tasks and
	// change the plan. Task j is block j.
	if req.policy == sched.MaxFlow {
		for node, blocks := range sched.FlowAssignment(tasks, req.Nodes) {
			for _, j := range blocks {
				to, seq = append(to, int32(node)), append(seq, int32(j))
			}
		}
	} else {
		topo, err := cluster.NewHomogeneous(req.Nodes, req.Racks)
		if err != nil {
			return nil, err
		}
		// The picker keeps tasks: nothing here writes to it while it picks.
		picker := req.policy.Factory()(tasks, topo)
		// Drain under the pull protocol, one task per node per round —
		// the deterministic equivalent of equally-fast single-slot nodes.
		for picker.Remaining() > 0 {
			progressed := false
			for n := 0; n < req.Nodes && picker.Remaining() > 0; n++ {
				if t, _, ok := picker.Next(cluster.NodeID(n)); ok {
					to, seq = append(to, int32(n)), append(seq, int32(t.Index))
					progressed = true
				}
			}
			if !progressed {
				return nil, fmt.Errorf("scheduler %q stalled with %d tasks left", req.Scheduler, picker.Remaining())
			}
		}
	}

	resp := &PlanResponse{
		Epoch:     sn.Epoch,
		Sub:       req.Sub,
		Scheduler: req.Scheduler,
		Nodes:     req.Nodes,
		Blocks:    nb,
		PerNode:   make([]NodePlan, req.Nodes),
	}
	for _, w := range weights {
		resp.TotalWeight += w
	}
	resp.AvgLoad = float64(resp.TotalWeight) / float64(req.Nodes)
	// Each node's blocks, in the order it was assigned them, carved from
	// one array by a counting pass over the assignment.
	start := make([]int, req.Nodes+1)
	for _, n := range to {
		start[n+1]++
	}
	for n := 0; n < req.Nodes; n++ {
		start[n+1] += start[n]
	}
	blocks := make([]int, len(seq))
	next := slices.Clone(start[:req.Nodes])
	for k, j := range seq {
		n := to[k]
		blocks[next[n]] = int(j)
		next[n]++
		resp.PerNode[n].Load += weights[j]
	}
	for n := range resp.PerNode {
		np := &resp.PerNode[n]
		np.Node = n
		np.Blocks = blocks[start[n]:start[n+1]:start[n+1]]
		resp.MaxLoad = max(resp.MaxLoad, np.Load)
	}
	return resp, nil
}
