package graph

import "sort"

// BalancedAssignment computes a locality-preserving assignment of every
// block to exactly one replica-holding node that (approximately) minimizes
// the maximum per-node workload — the "optimized task assignment through
// the Ford–Fulkerson method" of paper §IV-B.
//
// Method: binary-search the load cap C; feasibility of C is checked with a
// max-flow instance source→node (cap C), node→local block (cap w_j),
// block→sink (cap w_j). The fractional optimum is rounded by assigning
// each block to the node shipping it the most flow, so per-node loads can
// exceed the fractional cap by at most one block's weight (the usual
// rounding bound). Blocks with no in-range replica location are assigned
// round-robin (they have no locality to preserve).
func BalancedAssignment(g *Bipartite) [][]int {
	m := g.NumNodes()
	assign := make([][]int, m)
	if m == 0 {
		return assign
	}
	nb := g.NumBlocks()
	total := g.TotalWeight()

	// Load-cap search bounds: lower = max(avg, heaviest block), upper = total.
	lo := total / int64(m)
	var wmax int64
	for j := 0; j < nb; j++ {
		if g.Weight(j) > wmax {
			wmax = g.Weight(j)
		}
	}
	if wmax > lo {
		lo = wmax
	}
	hi := total
	if hi < lo {
		hi = lo
	}

	feasible := func(cap int64) (*FlowNetwork, bool) {
		// Vertices: 0=source, 1..m nodes, m+1..m+nb blocks, m+nb+1 sink.
		src, sink := 0, m+nb+1
		f := NewFlowNetwork(m + nb + 2)
		for i := 0; i < m; i++ {
			f.AddEdge(src, 1+i, cap)
		}
		var demand int64
		for j := 0; j < nb; j++ {
			w := g.Weight(j)
			if w == 0 {
				continue
			}
			locs := g.Locations(j)
			if len(locs) == 0 {
				continue // handled by the round-robin fallback
			}
			demand += w
			for _, i := range locs {
				f.AddEdge(1+i, 1+m+j, w)
			}
			f.AddEdge(1+m+j, sink, w)
		}
		return f, f.MaxFlow(src, sink) == demand
	}

	var best *FlowNetwork
	for lo < hi {
		mid := lo + (hi-lo)/2
		if f, ok := feasible(mid); ok {
			best = f
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if best == nil {
		best, _ = feasible(lo)
	}

	// Round: each block goes to the local node with the largest flow share.
	// Flow lives on node→block edges; scan each node's adjacency.
	bestNode := make([]int, nb)
	bestFlow := make([]int64, nb)
	for j := range bestNode {
		bestNode[j] = -1
	}
	for i := 0; i < m; i++ {
		u := 1 + i
		for ei, e := range best.adj[u] {
			if e.to < 1+m || e.to > m+nb {
				continue
			}
			j := e.to - 1 - m
			fl := best.Flow(u, ei)
			if fl > bestFlow[j] || (fl == bestFlow[j] && bestNode[j] == -1) {
				bestFlow[j] = fl
				bestNode[j] = i
			}
		}
	}
	// Fallbacks: zero-weight or location-less blocks round-robin over their
	// replicas (or all nodes when none).
	rr := 0
	for j := 0; j < nb; j++ {
		if bestNode[j] == -1 {
			if locs := g.Locations(j); len(locs) > 0 {
				bestNode[j] = locs[rr%len(locs)]
			} else {
				bestNode[j] = rr % m
			}
			rr++
		}
		assign[bestNode[j]] = append(assign[bestNode[j]], j)
	}
	for i := range assign {
		sort.Ints(assign[i])
	}
	return assign
}
