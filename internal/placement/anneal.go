package placement

import (
	"math"
	"math/rand"

	"datanet/internal/cluster"
)

// A simulated-annealing global placement optimizer in the style of
// dcache-distribute: instead of greedy single-block fixes it searches the
// whole replica-assignment space for a layout that minimizes
// heat-weighted node imbalance, discounted by the network bytes the
// transition would cost. Annealing escapes the local minima greedy
// balancers sit in (Metropolis acceptance of uphill steps early, frozen
// later), and the best-ever layout — not the final random-walk state — is
// what the plan encodes, so the reported objective can never worsen.

// AnnealConfig parameterizes one optimization run. Zero values get
// defaults suited to the sim-scale clusters in this repo.
type AnnealConfig struct {
	// Seed makes the search deterministic.
	Seed int64
	// Steps is the number of proposal steps; 0 means 4000.
	Steps int
}

// The annealing knobs no caller varies: tStart and tEnd bound the
// geometric cooling schedule, and moveCost weighs the moved-bytes fraction
// against imbalance in the objective.
const (
	tStart   = 1.0
	tEnd     = 1e-3
	moveCost = 0.25
)

// annealState tracks the incremental objective of a candidate assignment.
type annealState struct {
	assign  [][]cluster.NodeID // per block-index replica holders
	load    map[cluster.NodeID]float64
	moved   int64 // bytes that differ from the initial layout
	total   int64 // total replica bytes (normalizes moved)
	weights []float64
}

// blockWeight is a replica's contribution to its node's load: bytes
// scaled up by heat, so hot blocks dominate the imbalance signal.
func blockWeight(b BlockInfo) float64 {
	return float64(b.Bytes) * (1 + b.Heat)
}

// imbalance is the coefficient of variation of per-node load over the
// eligible universe.
func (s *annealState) imbalance(ids []cluster.NodeID) float64 {
	if len(ids) == 0 {
		return 0
	}
	var sum float64
	for _, id := range ids {
		sum += s.load[id]
	}
	mean := sum / float64(len(ids))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, id := range ids {
		d := s.load[id] - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(ids))) / mean
}

// objective is imbalance plus the move-cost-weighted fraction of bytes
// relocated relative to the initial layout.
func (s *annealState) objective(ids []cluster.NodeID) float64 {
	frac := 0.0
	if s.total > 0 {
		frac = float64(s.moved) / float64(s.total)
	}
	return s.imbalance(ids) + moveCost*frac
}

// Anneal searches for a lower-imbalance replica layout and returns the
// initial→best diff as a Plan. The initial layout is always a candidate
// (the search starts there and keeps the best-ever state), so
// ObjectiveAfter <= ObjectiveBefore holds unconditionally and an
// un-improvable layout yields an empty plan. Only relocations are
// proposed — replica counts per block are preserved — and proposals never
// target vetoed nodes or co-locate two replicas of one block.
func Anneal(blocks []BlockInfo, h *cluster.Health, cfg AnnealConfig) Plan {
	if cfg.Steps <= 0 {
		cfg.Steps = 4000
	}
	plan := Plan{Policy: "anneal"}

	var ids []cluster.NodeID // eligible universe
	veto := HealthVeto(h)
	for id := range cluster.NodeID(h.N()) {
		if veto(id) == VetoNone {
			ids = append(ids, id)
		}
	}
	cur := annealState{
		assign:  make([][]cluster.NodeID, len(blocks)),
		load:    make(map[cluster.NodeID]float64, h.N()),
		weights: make([]float64, len(blocks)),
	}
	for i, b := range blocks {
		cur.assign[i] = append([]cluster.NodeID(nil), b.Replicas...)
		cur.weights[i] = blockWeight(b)
		cur.total += b.Bytes * int64(len(b.Replicas))
		for _, n := range b.Replicas {
			cur.load[n] += cur.weights[i]
		}
	}
	plan.ObjectiveBefore = cur.objective(ids)
	plan.ObjectiveAfter = plan.ObjectiveBefore
	if len(ids) < 2 || len(blocks) == 0 {
		return plan
	}

	initial := make([][]cluster.NodeID, len(blocks))
	for i := range cur.assign {
		initial[i] = append([]cluster.NodeID(nil), cur.assign[i]...)
	}
	best := make([][]cluster.NodeID, len(blocks))
	copyAssign := func(dst, src [][]cluster.NodeID) {
		for i := range src {
			dst[i] = append(dst[i][:0], src[i]...)
		}
	}
	copyAssign(best, cur.assign)
	bestObj := plan.ObjectiveBefore

	rng := rand.New(rand.NewSource(cfg.Seed))
	curObj := plan.ObjectiveBefore
	cool := math.Pow(tEnd/tStart, 1/float64(cfg.Steps))
	temp := tStart
	for step := 0; step < cfg.Steps; step++ {
		temp *= cool
		bi := rng.Intn(len(blocks))
		holders := cur.assign[bi]
		if len(holders) == 0 {
			continue
		}
		si := rng.Intn(len(holders))
		from := holders[si]
		to := ids[rng.Intn(len(ids))]
		if to == from {
			continue
		}
		colocated := false
		for _, h := range holders {
			if h == to {
				colocated = true
				break
			}
		}
		if colocated {
			continue
		}

		// Apply the relocation incrementally, remember how to undo it.
		w := cur.weights[bi]
		bytes := blocks[bi].Bytes
		movedDelta := int64(0)
		if from == initial[bi][si] {
			movedDelta += bytes // leaving home
		}
		if to == initial[bi][si] {
			movedDelta -= bytes // returning home
		}
		cur.load[from] -= w
		cur.load[to] += w
		cur.moved += movedDelta
		holders[si] = to

		next := cur.objective(ids)
		accept := next <= curObj
		if !accept && temp > 0 {
			accept = rng.Float64() < math.Exp((curObj-next)/temp)
		}
		if !accept {
			holders[si] = from
			cur.load[from] += w
			cur.load[to] -= w
			cur.moved -= movedDelta
			continue
		}
		curObj = next
		if curObj < bestObj {
			bestObj = curObj
			copyAssign(best, cur.assign)
		}
	}

	plan.ObjectiveAfter = bestObj
	// Diff initial vs best as replica *sets*, pairing departed nodes with
	// arrived ones. A per-slot diff would encode a swap ([A,B] → [B,A]) as
	// two moves whose first target still holds the block when applied
	// sequentially; a set diff only moves replicas to nodes that hold no
	// copy in either layout, so the moves apply in any order.
	for i, b := range blocks {
		inBest := make(map[cluster.NodeID]bool, len(best[i]))
		for _, n := range best[i] {
			inBest[n] = true
		}
		inInit := make(map[cluster.NodeID]bool, len(initial[i]))
		for _, n := range initial[i] {
			inInit[n] = true
		}
		var removed, added []cluster.NodeID
		for _, n := range initial[i] {
			if !inBest[n] {
				removed = append(removed, n)
			}
		}
		for _, n := range best[i] {
			if !inInit[n] {
				added = append(added, n)
			}
		}
		for k := 0; k < len(removed) && k < len(added); k++ {
			plan.Moves = append(plan.Moves, Move{
				Block: b.Block, From: removed[k], To: added[k], Bytes: b.Bytes,
			})
		}
	}
	return plan
}
