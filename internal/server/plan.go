package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"datanet/internal/cluster"
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
	Node   int     `json:"node"`
	Load   int64   `json:"load"`
	Blocks []int32 `json:"blocks"`
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

// decodePlanRequest reads one plan request object: a field PlanRequest
// does not have, or anything after the object but white space, is an
// error rather than ignored.
func decodePlanRequest(blob []byte) (PlanRequest, error) {
	var req PlanRequest
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, errors.New("data after the request object")
	}
	return req, nil
}

// appendKey appends the request's plan-cache key: every field validate
// leaves, with the sub and each location list length-prefixed, so two
// validated requests share a key exactly when they are equal.
func (pr *PlanRequest) appendKey(b []byte) []byte {
	b = append(b, "plan\x00"...)
	b = binary.AppendUvarint(b, uint64(len(pr.Sub)))
	b = append(b, pr.Sub...)
	for _, v := range [...]int{pr.Nodes, pr.Racks, pr.Replication, int(pr.policy), len(pr.Locations)} {
		b = binary.AppendVarint(b, int64(v))
	}
	for _, locs := range pr.Locations {
		b = binary.AppendUvarint(b, uint64(len(locs)))
		for _, n := range locs {
			b = binary.AppendVarint(b, int64(n))
		}
	}
	return b
}

// replicas returns each of blocks blocks' replica holders at the
// request's placements. Given ones are copied into one buffer that each
// call reuses. Synthesized ones are a deterministic round-robin spread,
// replica k of block j on node (j+k·stride) mod nodes: a block's holders
// depend on j mod nodes alone, so each such row is laid out once.
func (pr *PlanRequest) replicas(blocks int) func(block int) []cluster.NodeID {
	if len(pr.Locations) != 0 {
		var buf []cluster.NodeID
		return func(j int) []cluster.NodeID {
			buf = buf[:0]
			for _, n := range pr.Locations[j] {
				buf = append(buf, cluster.NodeID(n))
			}
			return buf
		}
	}
	nodes, r := pr.Nodes, pr.Replication
	stride := max(nodes/r, 1)
	rows := make([]cluster.NodeID, min(nodes, blocks)*r)
	for first := 0; first*r < len(rows); first++ {
		n := first
		for k := range r {
			rows[first*r+k] = cluster.NodeID(n)
			if n += stride; n >= nodes {
				n -= nodes
			}
		}
	}
	return func(j int) []cluster.NodeID {
		row := j % nodes * r
		return rows[row : row+r : row+r]
	}
}

// buildPlan computes the scheduling plan for req, which validate has
// accepted, against one snapshot. It is a pure function of (snapshot,
// request), so responses are cacheable per epoch. The picker reads the
// sparse Eq. 6 answer: the blocks the sub-dataset weighs something in,
// and the rest as a count.
func buildPlan(sn *Snapshot, req *PlanRequest) (*PlanResponse, error) {
	nb := sn.Arr.Len()
	dist := sn.Arr.Distribution(req.Sub)
	in := sched.Input{Weighted: make([]sched.Weighted, 0, len(dist)), Replicas: req.replicas(nb)}
	var total int64
	for _, be := range dist {
		total += be.Size
		if be.Size != 0 {
			in.Weighted = append(in.Weighted, sched.Weighted{Pos: be.Block, Weight: be.Size})
		}
	}
	in.Zeros = nb - len(in.Weighted)
	topo, err := cluster.NewHomogeneous(req.Nodes, req.Racks)
	if err != nil {
		return nil, err
	}
	// Block order[k] was the k-th assigned, to node[order[k]].
	order, node, err := req.policy.Plan(in, topo)
	if err != nil {
		return nil, err
	}

	resp := &PlanResponse{
		Epoch:       sn.Epoch,
		Sub:         req.Sub,
		Scheduler:   req.Scheduler,
		Nodes:       req.Nodes,
		Blocks:      nb,
		TotalWeight: total,
		AvgLoad:     float64(total) / float64(req.Nodes),
		PerNode:     make([]NodePlan, req.Nodes),
	}
	// Each node's blocks, in the order it was assigned them, carved from
	// one array by a counting pass over the assignment.
	start := make([]int, req.Nodes+1)
	for _, n := range node {
		start[n+1]++
	}
	for n := 0; n < req.Nodes; n++ {
		start[n+1] += start[n]
	}
	blocks := make([]int32, len(order))
	next := slices.Clone(start[:req.Nodes])
	for _, j := range order {
		n := node[j]
		blocks[next[n]] = j
		next[n]++
	}
	for _, w := range in.Weighted {
		resp.PerNode[node[w.Pos]].Load += w.Weight
	}
	for n := range resp.PerNode {
		np := &resp.PerNode[n]
		np.Node = n
		np.Blocks = blocks[start[n]:start[n+1]:start[n+1]]
		resp.MaxLoad = max(resp.MaxLoad, np.Load)
	}
	return resp, nil
}
