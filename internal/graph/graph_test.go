package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// loads returns the per-node workload of an assignment.
func loads(g *Bipartite, assign [][]int) []int64 {
	out := make([]int64, len(assign))
	for i, blocks := range assign {
		for _, j := range blocks {
			out[i] += g.Weight(j)
		}
	}
	return out
}

func TestBipartiteBasics(t *testing.T) {
	g := NewBipartite(3,
		[]int64{10, 20, 30},
		[][]int{{0, 1}, {1, 2}, {0, 2, 99 /* ignored: out of range */}},
	)
	if g.NumNodes() != 3 || g.NumBlocks() != 3 {
		t.Fatalf("dims = %d, %d", g.NumNodes(), g.NumBlocks())
	}
	if g.TotalWeight() != 60 {
		t.Errorf("TotalWeight = %d", g.TotalWeight())
	}
	if !slices.Contains(g.Locations(0), 0) || slices.Contains(g.Locations(0), 2) {
		t.Errorf("Locations(0) = %v", g.Locations(0))
	}
	if len(g.Locations(2)) != 2 {
		t.Errorf("out-of-range location not dropped: %v", g.Locations(2))
	}
	if g.Weight(1) != 20 {
		t.Errorf("Weight(1) = %d", g.Weight(1))
	}
}

func TestMaxFlowSimple(t *testing.T) {
	// Classic diamond: s=0, t=3; s→1 (3), s→2 (2), 1→t (2), 2→t (3), 1→2 (5).
	f := NewFlowNetwork(4)
	f.AddEdge(0, 1, 3)
	f.AddEdge(0, 2, 2)
	f.AddEdge(1, 3, 2)
	f.AddEdge(2, 3, 3)
	f.AddEdge(1, 2, 5)
	if got := f.MaxFlow(0, 3); got != 5 {
		t.Errorf("MaxFlow = %d, want 5", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	f := NewFlowNetwork(3)
	f.AddEdge(0, 1, 10)
	if got := f.MaxFlow(0, 2); got != 0 {
		t.Errorf("MaxFlow = %d, want 0", got)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	// Chain with capacities 7,3,9 → flow 3.
	f := NewFlowNetwork(4)
	f.AddEdge(0, 1, 7)
	f.AddEdge(1, 2, 3)
	f.AddEdge(2, 3, 9)
	if got := f.MaxFlow(0, 3); got != 3 {
		t.Errorf("MaxFlow = %d, want 3", got)
	}
}

func TestFlowReadback(t *testing.T) {
	f := NewFlowNetwork(3)
	u, idx := f.AddEdge(0, 1, 5)
	f.AddEdge(1, 2, 4)
	f.MaxFlow(0, 2)
	if got := f.Flow(u, idx); got != 4 {
		t.Errorf("edge flow = %d, want 4", got)
	}
}

func TestBalancedAssignmentCoversAllBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nodes, blocks = 8, 60
	weights := make([]int64, blocks)
	locs := make([][]int, blocks)
	for j := range weights {
		weights[j] = int64(rng.Intn(1000))
		perm := rng.Perm(nodes)
		locs[j] = perm[:3]
	}
	g := NewBipartite(nodes, weights, locs)
	assign := BalancedAssignment(g)
	seen := make(map[int]int)
	for n, blks := range assign {
		for _, j := range blks {
			seen[j]++
			// Every assignment must be a replica holder (locality).
			if !slices.Contains(g.Locations(j), n) {
				t.Errorf("block %d assigned off-replica to %d", j, n)
			}
		}
	}
	if len(seen) != blocks {
		t.Fatalf("assigned %d blocks, want %d", len(seen), blocks)
	}
	for j, c := range seen {
		if c != 1 {
			t.Errorf("block %d assigned %d times", j, c)
		}
	}
}

func TestBalancedAssignmentBeatsWorstCase(t *testing.T) {
	// One heavy block per node placed deliberately; naive all-on-one-node
	// would be terrible, max-flow must spread them.
	const nodes = 4
	weights := []int64{100, 100, 100, 100}
	locs := [][]int{{0, 1}, {0, 1}, {2, 3}, {2, 3}}
	g := NewBipartite(nodes, weights, locs)
	assign := BalancedAssignment(g)
	if got := slices.Max(loads(g, assign)); got != 100 {
		t.Errorf("MaxLoad = %d, want 100 (one block per node)", got)
	}
	perNode := loads(g, assign)
	for i, l := range perNode {
		if l != 100 {
			t.Errorf("node %d load = %d, want 100", i, l)
		}
	}
}

func TestBalancedAssignmentLocationless(t *testing.T) {
	g := NewBipartite(3, []int64{5, 5, 5}, [][]int{nil, nil, nil})
	assign := BalancedAssignment(g)
	total := 0
	for _, blks := range assign {
		total += len(blks)
	}
	if total != 3 {
		t.Errorf("locationless blocks not all assigned: %d", total)
	}
}

func TestBalancedAssignmentEmpty(t *testing.T) {
	if got := BalancedAssignment(NewBipartite(0, nil, nil)); len(got) != 0 {
		t.Errorf("empty = %v", got)
	}
	g := NewBipartite(2, nil, nil)
	if got := BalancedAssignment(g); len(got) != 2 {
		t.Errorf("no blocks = %v", got)
	}
}

// Property: assignment always covers every block exactly once and keeps
// max load within 2× of the fractional lower bound max(avg, max weight).
func TestBalancedAssignmentQualityQuick(t *testing.T) {
	f := func(ws []uint16, seed int64) bool {
		if len(ws) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		const nodes = 6
		weights := make([]int64, len(ws))
		locs := make([][]int, len(ws))
		var total, wmax int64
		for j, w := range ws {
			weights[j] = int64(w % 500)
			total += weights[j]
			if weights[j] > wmax {
				wmax = weights[j]
			}
			perm := rng.Perm(nodes)
			locs[j] = perm[:3]
		}
		g := NewBipartite(nodes, weights, locs)
		assign := BalancedAssignment(g)
		count := 0
		for _, blks := range assign {
			count += len(blks)
		}
		if count != len(ws) {
			return false
		}
		lower := total / nodes
		if wmax > lower {
			lower = wmax
		}
		if lower == 0 {
			return true
		}
		return slices.Max(loads(g, assign)) <= 2*lower+1
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
