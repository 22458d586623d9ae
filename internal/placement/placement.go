// Package placement holds the HDFS write path's replica-placement
// policies and the metadata cluster's shard map (rendezvous.go). The
// write path asks one question — which nodes receive a new block's
// replicas — with no existing holders and no vetoes: a block is placed
// once, on a topology whose nodes are all live at write time. Crash repair
// (hdfs.FileSystem.FailNodes) and follower enlistment (clusterd) make their
// own skips at their one call site.
//
// The contract every policy honors: Choose returns min(want, N) distinct
// node ids, and identical inputs produce identical choices (any randomness
// comes from the caller-owned RNG).
package placement

import (
	"math/rand"

	"datanet/internal/cluster"
)

// Policy chooses where a new block's replicas live.
type Policy interface {
	// Choose returns min(want, topo.N()) distinct node ids of topo.
	Choose(topo *cluster.Topology, rng *rand.Rand, want int) []cluster.NodeID
	// Name identifies the policy in reports.
	Name() string
}

// Random picks replicas uniformly at random without replacement — the
// paper's characterization of HDFS writes ("randomly distribute them
// with several identical copies").
type Random struct{}

// Name implements Policy.
func (Random) Name() string { return "random" }

// Choose implements Policy: the first want entries of one permutation.
func (Random) Choose(topo *cluster.Topology, rng *rand.Rand, want int) []cluster.NodeID {
	perm := rng.Perm(topo.N())
	out := make([]cluster.NodeID, min(want, len(perm)))
	for i := range out {
		out[i] = cluster.NodeID(perm[i])
	}
	return out
}

// RackAware mimics the HDFS default policy: the first replica on a
// random node, the second on a node in a different rack, the third in the
// same rack as the second (when racks permit). Extra replicas are random.
type RackAware struct{}

// Name implements Policy.
func (RackAware) Name() string { return "rack-aware" }

// Choose implements Policy. The draw sequence is one Intn for the first
// replica and one Perm scan per rack-constrained attempt after it.
func (RackAware) Choose(topo *cluster.Topology, rng *rand.Rand, want int) []cluster.NodeID {
	n := topo.N()
	used := make(map[cluster.NodeID]bool, want)
	out := make([]cluster.NodeID, 0, want)
	add := func(id cluster.NodeID) {
		used[id] = true
		out = append(out, id)
	}
	// pick scans a random permutation for the first acceptable unused
	// node; a nil accept takes any.
	pick := func(accept func(cluster.NodeID) bool) (cluster.NodeID, bool) {
		for _, p := range rng.Perm(n) {
			id := cluster.NodeID(p)
			if !used[id] && (accept == nil || accept(id)) {
				return id, true
			}
		}
		return 0, false
	}

	first := cluster.NodeID(rng.Intn(n))
	add(first)
	if want == 1 {
		return out
	}

	// Second replica: different rack from the first when possible.
	second, ok := pick(func(id cluster.NodeID) bool { return !topo.SameRack(id, first) })
	if !ok {
		if second, ok = pick(nil); !ok {
			return out
		}
	}
	add(second)

	// Third replica: same rack as the second when possible.
	for len(out) < want {
		var next cluster.NodeID
		if len(out) == 2 {
			next, ok = pick(func(id cluster.NodeID) bool { return topo.SameRack(id, second) })
			if !ok {
				next, ok = pick(nil)
			}
		} else {
			next, ok = pick(nil)
		}
		if !ok {
			return out
		}
		add(next)
	}
	return out
}

// RoundRobin stripes replicas deterministically: block i gets nodes
// i, i+1, i+2 … (mod N). Useful for tests that need a fully predictable
// layout and as a perfectly "even" ablation baseline.
type RoundRobin struct {
	// next is the first node of the next stripe; the zero value starts at
	// node 0.
	next int
}

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Choose implements Policy; rng is unused.
func (p *RoundRobin) Choose(topo *cluster.Topology, _ *rand.Rand, want int) []cluster.NodeID {
	n := topo.N()
	out := make([]cluster.NodeID, min(want, n))
	for i := range out {
		out[i] = cluster.NodeID((p.next + i) % n)
	}
	p.next = (p.next + 1) % n
	return out
}
