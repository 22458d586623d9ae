package server

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"datanet/internal/cluster"
	"datanet/internal/elasticmap"
	"datanet/internal/graph"
	"datanet/internal/hdfs"
	"datanet/internal/records"
	"datanet/internal/sched"
)

// denseBuildPlan is buildPlan as it was before the picker read the sparse
// Eq. 6 answer: one Task per block over the dense weight vector, each
// block's replicas spread into one array, the policy's exported picker
// drained one pull per node per round, and max-flow's assignment taken
// from the graph directly. It is the reference the served plans are
// compared with.
func denseBuildPlan(sn *Snapshot, req *PlanRequest) (*PlanResponse, error) {
	weights := sn.Arr.Weights(req.Sub)
	tasks := make([]sched.Task, len(weights))
	for j, w := range weights {
		tasks[j] = sched.Task{Block: hdfs.BlockID(j), Index: j, Weight: w, Bytes: w}
	}
	if len(req.Locations) != 0 {
		for j, locs := range req.Locations {
			for _, n := range locs {
				tasks[j].Locations = append(tasks[j].Locations, cluster.NodeID(n))
			}
		}
	} else {
		r, stride := req.Replication, max(req.Nodes/req.Replication, 1)
		ids := make([]cluster.NodeID, len(tasks)*r)
		first := 0
		for locs := ids; len(locs) >= r; locs = locs[r:] {
			n := first
			for k := range locs[:r] {
				locs[k] = cluster.NodeID(n)
				if n += stride; n >= req.Nodes {
					n -= req.Nodes
				}
			}
			if first++; first == req.Nodes {
				first = 0
			}
		}
		for j := range tasks {
			tasks[j].Locations = ids[j*r : (j+1)*r : (j+1)*r]
		}
	}

	var to, seq []int32
	if req.Scheduler == sched.MaxFlow.String() {
		locs := make([][]int, len(tasks))
		for j, t := range tasks {
			for _, n := range t.Locations {
				locs[j] = append(locs[j], int(n))
			}
		}
		for node, blocks := range graph.BalancedAssignment(graph.NewBipartite(req.Nodes, weights, locs)) {
			for _, j := range blocks {
				to, seq = append(to, int32(node)), append(seq, int32(j))
			}
		}
	} else {
		topo, err := cluster.NewHomogeneous(req.Nodes, req.Racks)
		if err != nil {
			return nil, err
		}
		var policy sched.Policy
		if err := policy.Set(req.Scheduler); err != nil {
			return nil, err
		}
		picker := policy.Factory()(tasks, topo)
		for picker.Remaining() > 0 {
			progressed := false
			for n := 0; n < req.Nodes && picker.Remaining() > 0; n++ {
				if t, _, ok := picker.Next(cluster.NodeID(n)); ok {
					to, seq = append(to, int32(n)), append(seq, int32(t.Index))
					progressed = true
				}
			}
			if !progressed {
				return nil, fmt.Errorf("scheduler %q stalled", req.Scheduler)
			}
		}
	}

	resp := &PlanResponse{
		Epoch: sn.Epoch, Sub: req.Sub, Scheduler: req.Scheduler,
		Nodes: req.Nodes, Blocks: len(weights), PerNode: make([]NodePlan, req.Nodes),
	}
	for _, w := range weights {
		resp.TotalWeight += w
	}
	resp.AvgLoad = float64(resp.TotalWeight) / float64(req.Nodes)
	for n := range resp.PerNode {
		resp.PerNode[n] = NodePlan{Node: n, Blocks: []int32{}}
	}
	for k, j := range seq {
		np := &resp.PerNode[to[k]]
		np.Blocks = append(np.Blocks, j)
		np.Load += weights[j]
	}
	for _, np := range resp.PerNode {
		resp.MaxLoad = max(resp.MaxLoad, np.Load)
	}
	return resp, nil
}

// Every policy plans over the sparse Eq. 6 answer the bytes the dense
// reference plans: over synthesized placements at the default, a low and
// a clamped replication, and over explicit ones with a replica-less block
// and a node named twice, for keys present in a few blocks, in most, and
// in none.
func TestSparsePlanMatchesDense(t *testing.T) {
	var blocks [][]records.Record
	for i := range 48 {
		recs := []records.Record{{Sub: "common", Payload: strings.Repeat("c", 20+i%7)}}
		if i%9 == 0 {
			recs = append(recs, records.Record{Sub: "rare", Payload: strings.Repeat("r", 300+i)})
		}
		if i%2 == 0 {
			recs = append(recs, records.Record{Sub: fmt.Sprintf("filler-%d", i), Payload: "f"})
		}
		blocks = append(blocks, recs)
	}
	arr := elasticmap.Build(blocks, elasticmap.Options{Alpha: 0.5})
	store := NewStore(16)
	store.Put("logs", arr)
	sn, _ := store.Get("logs")

	explicit := func(nodes int) [][]int {
		locs := make([][]int, arr.Len())
		for j := range locs {
			switch j % 5 {
			case 0:
				locs[j] = []int{} // no replica
			case 1:
				locs[j] = []int{j % nodes, j % nodes} // one node named twice
			default:
				locs[j] = []int{j % nodes, (j*7 + 3) % nodes}
			}
		}
		return locs
	}
	for _, policy := range []string{"datanet", "capacity", "locality", "lpt", "maxflow"} {
		for _, nodes := range []int{1, 3, 8, 16} {
			for _, shape := range []struct {
				replication int
				locations   [][]int
			}{{0, nil}, {1, nil}, {nodes + 2, nil}, {0, explicit(nodes)}} {
				for _, sub := range []string{"rare", "common", "filler-4", "absent"} {
					req := PlanRequest{Sub: sub, Nodes: nodes, Scheduler: policy, Replication: shape.replication, Locations: shape.locations}
					if err := req.validate(arr.Len()); err != nil {
						t.Fatal(err)
					}
					got, err := buildPlan(sn, &req)
					if err != nil {
						t.Fatal(err)
					}
					want, err := denseBuildPlan(sn, &req)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := marshal(got), marshal(want); !bytes.Equal(g, w) {
						t.Fatalf("%+v:\n got %s\nwant %s", req, g, w)
					}
				}
			}
		}
	}
}

// samePlanRequest is equality of validated requests: the location lists
// compare by their entries, so an empty list and a missing one are equal.
func samePlanRequest(a, b *PlanRequest) bool {
	return a.Sub == b.Sub && a.Nodes == b.Nodes && a.Racks == b.Racks &&
		a.Replication == b.Replication && a.Scheduler == b.Scheduler && a.policy == b.policy &&
		slices.EqualFunc(a.Locations, b.Locations, func(x, y []int) bool { return slices.Equal(x, y) })
}

// planKey is the cache key of a request after validation against an
// array of blocks blocks, "" when the request does not validate.
func planKey(req PlanRequest, blocks int) (PlanRequest, string) {
	if req.validate(blocks) != nil {
		return req, ""
	}
	return req, string(req.appendKey(nil))
}

// Two requests share a plan-cache key exactly when validate makes them
// equal: aliases, defaults and clamps meet, and no two different subs or
// location lists collide, whatever bytes they hold.
func TestPlanKeyMatchesValidatedEquality(t *testing.T) {
	for _, c := range []struct {
		name  string
		a, b  PlanRequest
		equal bool
	}{
		{"scheduler alias", PlanRequest{Sub: "s", Nodes: 4, Scheduler: "capacity"}, PlanRequest{Sub: "s", Nodes: 4, Scheduler: "datanet-capacity"}, true},
		{"default scheduler", PlanRequest{Sub: "s", Nodes: 4}, PlanRequest{Sub: "s", Nodes: 4, Scheduler: "datanet"}, true},
		{"default replication", PlanRequest{Sub: "s", Nodes: 4}, PlanRequest{Sub: "s", Nodes: 4, Replication: 3}, true},
		{"clamped replication", PlanRequest{Sub: "s", Nodes: 2, Replication: 9}, PlanRequest{Sub: "s", Nodes: 2, Replication: 2}, true},
		{"default racks", PlanRequest{Sub: "s", Nodes: 4}, PlanRequest{Sub: "s", Nodes: 4, Racks: 1}, true},
		{"empty locations", PlanRequest{Sub: "s", Nodes: 4, Locations: [][]int{}}, PlanRequest{Sub: "s", Nodes: 4}, true},
		{"scheduler", PlanRequest{Sub: "s", Nodes: 4, Scheduler: "lpt"}, PlanRequest{Sub: "s", Nodes: 4, Scheduler: "locality"}, false},
		{"nodes", PlanRequest{Sub: "s", Nodes: 4}, PlanRequest{Sub: "s", Nodes: 5}, false},
		{"racks", PlanRequest{Sub: "s", Nodes: 4, Racks: 2}, PlanRequest{Sub: "s", Nodes: 4}, false},
		{"replication", PlanRequest{Sub: "s", Nodes: 4, Replication: 2}, PlanRequest{Sub: "s", Nodes: 4}, false},
		{"sub with NUL", PlanRequest{Sub: "a\x00", Nodes: 4}, PlanRequest{Sub: "a", Nodes: 4}, false},
		{"sub with quote", PlanRequest{Sub: `a"`, Nodes: 4}, PlanRequest{Sub: "a", Nodes: 4}, false},
		{"sub holding a key's tail", PlanRequest{Sub: "a\x04", Nodes: 4}, PlanRequest{Sub: "a", Nodes: 4}, false},
		{"location split", PlanRequest{Sub: "s", Nodes: 4, Locations: [][]int{{1}, {2, 3}}}, PlanRequest{Sub: "s", Nodes: 4, Locations: [][]int{{1, 2}, {3}}}, false},
		{"location order", PlanRequest{Sub: "s", Nodes: 4, Locations: [][]int{{1, 2}, {3}}}, PlanRequest{Sub: "s", Nodes: 4, Locations: [][]int{{2, 1}, {3}}}, false},
		{"locations given", PlanRequest{Sub: "s", Nodes: 4, Locations: [][]int{{}, {}}}, PlanRequest{Sub: "s", Nodes: 4}, false},
	} {
		blocks := max(len(c.a.Locations), len(c.b.Locations), 2)
		a, ka := planKey(c.a, blocks)
		b, kb := planKey(c.b, blocks)
		if ka == "" || kb == "" {
			t.Fatalf("%s: a request did not validate", c.name)
		}
		if same := samePlanRequest(&a, &b); same != c.equal {
			t.Fatalf("%s: validated requests equal = %v, want %v", c.name, same, c.equal)
		}
		if (ka == kb) != c.equal {
			t.Errorf("%s: keys %q and %q, want equal = %v", c.name, ka, kb, c.equal)
		}
	}
}

// fuzzPlanRequest builds a request from fuzzed fields; every byte of locs
// below 0xf0 names a node in the current list, and a byte from 0xf0 up
// starts the next list.
func fuzzPlanRequest(sub string, nodes, racks, replication int8, scheduler string, locs []byte) PlanRequest {
	req := PlanRequest{Sub: sub, Nodes: int(nodes), Racks: int(racks), Replication: int(replication), Scheduler: scheduler}
	if len(locs) > 0 {
		req.Locations = [][]int{{}}
		for _, c := range locs {
			if c >= 0xf0 {
				req.Locations = append(req.Locations, []int{})
				continue
			}
			last := &req.Locations[len(req.Locations)-1]
			*last = append(*last, int(c)%max(int(nodes), 1))
		}
	}
	return req
}

// FuzzPlanKey: two requests that both validate share a plan-cache key if
// and only if they are equal after validation.
func FuzzPlanKey(f *testing.F) {
	f.Add("s", int8(4), int8(0), int8(0), "capacity", []byte{}, "s", int8(4), int8(1), int8(3), "datanet-capacity", []byte{})
	f.Add("s", int8(2), int8(1), int8(9), "", []byte{}, "s", int8(2), int8(1), int8(2), "datanet", []byte{})
	f.Add("a\x00", int8(3), int8(1), int8(1), "lpt", []byte{1, 0xf0, 2, 3}, "a", int8(3), int8(1), int8(1), "lpt", []byte{1, 2, 0xf0, 3})
	f.Add(`q"`, int8(5), int8(2), int8(2), "maxflow", []byte{0xf0}, `q"`, int8(5), int8(2), int8(2), "maxflow", []byte{0xf0})
	f.Fuzz(func(t *testing.T, subA string, nodesA, racksA, replA int8, schedA string, locsA []byte,
		subB string, nodesB, racksB, replB int8, schedB string, locsB []byte) {
		a, b := fuzzPlanRequest(subA, nodesA, racksA, replA, schedA, locsA), fuzzPlanRequest(subB, nodesB, racksB, replB, schedB, locsB)
		// validate compares the location lists with the array's block
		// count, so both requests are validated against the longer.
		blocks := max(len(a.Locations), len(b.Locations), 1)
		a, ka := planKey(a, blocks)
		b, kb := planKey(b, blocks)
		if ka == "" || kb == "" {
			t.Skip()
		}
		if same := samePlanRequest(&a, &b); same != (ka == kb) {
			t.Fatalf("validated requests equal = %v, keys equal = %v:\n%+v\n%+v", same, ka == kb, a, b)
		}
	})
}
