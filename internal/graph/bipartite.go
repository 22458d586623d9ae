// Package graph provides the bipartite cluster-node/block-file graph of
// paper §IV-A and a max-flow solver used for the optimal offline task
// assignment the paper attributes to the Ford–Fulkerson method.
//
// Vertices are cluster nodes (bottom) and HDFS blocks (top); an edge
// (cn_i, b_j) exists iff node i holds a replica of block j, weighted by
// |b_j ∩ s|, the size of the target sub-dataset inside the block.
package graph

// Bipartite is the node↔block graph. It is immutable after construction;
// schedulers track their own remaining-task state.
type Bipartite struct {
	nNodes    int
	weights   []int64 // per block: |b ∩ s|
	locations [][]int // per block: replica-holding node indices
}

// NewBipartite builds the graph. weights[j] is block j's sub-dataset bytes;
// locations[j] lists the nodes holding a replica of block j. Node indices
// outside [0, nNodes) are ignored.
func NewBipartite(nNodes int, weights []int64, locations [][]int) *Bipartite {
	g := &Bipartite{
		nNodes:    nNodes,
		weights:   append([]int64(nil), weights...),
		locations: make([][]int, len(locations)),
	}
	for j, locs := range locations {
		for _, n := range locs {
			if n < 0 || n >= nNodes {
				continue
			}
			g.locations[j] = append(g.locations[j], n)
		}
	}
	return g
}

// NumNodes returns the cluster-node count.
func (g *Bipartite) NumNodes() int { return g.nNodes }

// NumBlocks returns the block count.
func (g *Bipartite) NumBlocks() int { return len(g.weights) }

// Weight returns |b_j ∩ s| for block j.
func (g *Bipartite) Weight(j int) int64 { return g.weights[j] }

// TotalWeight sums all block weights.
func (g *Bipartite) TotalWeight() int64 {
	var t int64
	for _, w := range g.weights {
		t += w
	}
	return t
}

// Locations returns the replica nodes of block j (shared slice; do not
// mutate).
func (g *Bipartite) Locations(j int) []int { return g.locations[j] }
