package placement

import "datanet/internal/cluster"

// The write-path policies ported from internal/hdfs/placement.go. Choose
// consumes the pre-refactor write path's exact RNG draw sequence whenever
// no veto or existing-replica constraint is active — the 61 golden
// schedules replay through it.

// Random picks replicas uniformly at random without replacement — the
// paper's characterization of HDFS writes ("randomly distribute them
// with several identical copies").
type Random struct{}

// Name implements Policy.
func (Random) Name() string { return "random" }

// Choose implements Policy: one permutation over the universe, first
// Want eligible entries.
func (Random) Choose(req Request) ([]cluster.NodeID, error) {
	ids := req.universe()
	out := make([]cluster.NodeID, 0, req.Want)
	for _, p := range req.RNG.Perm(len(ids)) {
		if len(out) == req.Want {
			break
		}
		if id := ids[p]; req.eligible(id) {
			out = append(out, id)
		}
	}
	return req.done(out)
}

// RackAware mimics the HDFS default policy: the first replica on a
// random node, the second on a node in a different rack, the third in the
// same rack as the second (when racks permit). Extra replicas are random.
type RackAware struct{}

// Name implements Policy.
func (RackAware) Name() string { return "rack-aware" }

// Choose implements Policy. The draw sequence is one Intn for the first
// replica and one Perm scan per subsequent pick; vetoes and existing
// replicas only shrink the acceptable set inside each scan (plus one
// extra scan if the Intn draw itself lands on an ineligible node).
func (RackAware) Choose(req Request) ([]cluster.NodeID, error) {
	topo, rng := req.Topo, req.RNG
	n := topo.N()
	used := make(map[cluster.NodeID]bool, req.Want)
	out := make([]cluster.NodeID, 0, req.Want)
	add := func(id cluster.NodeID) {
		used[id] = true
		out = append(out, id)
	}

	pick := func(accept func(cluster.NodeID) bool) (cluster.NodeID, bool) {
		// Scan a random permutation for the first acceptable unused node.
		for _, p := range rng.Perm(n) {
			id := cluster.NodeID(p)
			if !used[id] && req.eligible(id) && accept(id) {
				return id, true
			}
		}
		return 0, false
	}
	any := func(cluster.NodeID) bool { return true }

	first := cluster.NodeID(rng.Intn(n))
	if !req.eligible(first) {
		// Only reachable under an active veto/Have set; costs one extra
		// Perm draw, so the unconstrained sequence is untouched.
		f, ok := pick(any)
		if !ok {
			return req.done(out)
		}
		first = f
	}
	add(first)
	if req.Want == 1 {
		return req.done(out)
	}

	// Second replica: different rack from the first when possible.
	second, ok := pick(func(id cluster.NodeID) bool { return !topo.SameRack(id, first) })
	if !ok {
		second, ok = pick(any)
		if !ok {
			return req.done(out)
		}
	}
	add(second)

	// Third replica: same rack as the second when possible.
	for len(out) < req.Want {
		var next cluster.NodeID
		if len(out) == 2 {
			next, ok = pick(func(id cluster.NodeID) bool { return topo.SameRack(id, second) })
			if !ok {
				next, ok = pick(any)
			}
		} else {
			next, ok = pick(any)
		}
		if !ok {
			return req.done(out)
		}
		add(next)
	}
	return req.done(out)
}

// RoundRobin stripes replicas deterministically: block i gets nodes
// i, i+stride, i+2*stride … (mod N). Useful for tests that need a fully
// predictable layout and as a perfectly "even" ablation baseline.
type RoundRobin struct {
	// next is internal state; the zero value starts at node 0.
	next int
	// Stride between replicas; 1 when zero.
	Stride int
}

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Choose implements Policy. Unconstrained requests take the stripe as
// is; under vetoes the stripe is walked further (then the id
// space ascending, in case the stride cycle misses nodes) skipping
// ineligible or repeated candidates.
func (p *RoundRobin) Choose(req Request) ([]cluster.NodeID, error) {
	stride := p.Stride
	if stride <= 0 {
		stride = 1
	}
	ids := req.universe()
	n := len(ids)
	if n == 0 {
		return req.done(nil)
	}
	if len(req.Have) == 0 && req.Veto == nil && req.Want <= n {
		out := make([]cluster.NodeID, req.Want)
		for i := range out {
			out[i] = ids[(p.next+i*stride)%n]
		}
		p.next = (p.next + 1) % n
		return req.done(out)
	}
	seen := make(map[cluster.NodeID]bool, n)
	out := make([]cluster.NodeID, 0, req.Want)
	take := func(id cluster.NodeID) {
		if len(out) < req.Want && !seen[id] {
			seen[id] = true
			if req.eligible(id) {
				out = append(out, id)
			}
		}
	}
	for i := 0; i < n; i++ {
		take(ids[(p.next+i*stride)%n])
	}
	for _, id := range ids { // cover ids a non-coprime stride cycle skips
		take(id)
	}
	p.next = (p.next + 1) % n
	return req.done(out)
}

// LeastUsed picks the least-utilized eligible node, ties broken by lower
// id — the name-node's re-replication target selection ported from
// internal/hdfs/maintenance.go. Scanning the universe in ascending id
// order with a strict-less comparison reproduces the legacy pick
// bit-for-bit. For Want > 1 it returns the Want least-utilized eligible
// nodes; a caller that places several blocks charges Usage between calls.
type LeastUsed struct{}

// Name implements Policy.
func (LeastUsed) Name() string { return "least-used" }

// Choose implements Policy. The caller's Usage map is never mutated.
func (LeastUsed) Choose(req Request) ([]cluster.NodeID, error) {
	ids := req.universe()
	out := make([]cluster.NodeID, 0, req.Want)
	chosen := make(map[cluster.NodeID]bool, req.Want)
	for len(out) < req.Want {
		best := cluster.NodeID(-1)
		for _, id := range ids {
			if chosen[id] || !req.eligible(id) {
				continue
			}
			if best == -1 || req.Usage[id] < req.Usage[best] || (req.Usage[id] == req.Usage[best] && id < best) {
				best = id
			}
		}
		if best == -1 {
			break
		}
		out = append(out, best)
		chosen[best] = true
	}
	return req.done(out)
}
