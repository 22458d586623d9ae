package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"datanet/internal/cluster"
)

func TestPlanRebalanceLevels(t *testing.T) {
	loads := map[cluster.NodeID]int64{0: 100, 1: 20, 2: 60, 3: 20}
	plan := PlanRebalance(loads)
	if plan.TotalBytes != 200 {
		t.Fatalf("TotalBytes = %d", plan.TotalBytes)
	}
	// avg = 50; surpluses: node0 +50, node2 +10 → 60 bytes must move.
	if plan.BytesMoved != 60 {
		t.Errorf("BytesMoved = %d, want 60", plan.BytesMoved)
	}
	if got := plan.Fraction(); got != 0.3 {
		t.Errorf("Fraction = %g, want 0.3", got)
	}
	// Applying the moves must level every node to the average.
	final := map[cluster.NodeID]int64{}
	for k, v := range loads {
		final[k] = v
	}
	for _, m := range plan.Moves {
		final[m.From] -= m.Bytes
		final[m.To] += m.Bytes
	}
	for id, v := range final {
		if v != 50 {
			t.Errorf("node %d ends at %d, want 50", id, v)
		}
	}
	if plan.NodesInvolved != 4 {
		t.Errorf("NodesInvolved = %d, want 4", plan.NodesInvolved)
	}
}

func TestPlanRebalanceAlreadyBalanced(t *testing.T) {
	plan := PlanRebalance(map[cluster.NodeID]int64{0: 10, 1: 10, 2: 10})
	if plan.BytesMoved != 0 || len(plan.Moves) != 0 || plan.NodesInvolved != 0 {
		t.Errorf("balanced plan = %+v", plan)
	}
}

func TestPlanRebalanceEmpty(t *testing.T) {
	if plan := PlanRebalance(nil); plan.Fraction() != 0 {
		t.Errorf("empty plan fraction = %g", plan.Fraction())
	}
}

func TestPlanRebalanceRemainder(t *testing.T) {
	// Total 10 over 3 nodes: targets 4,3,3 — no move should be lost to
	// rounding.
	plan := PlanRebalance(map[cluster.NodeID]int64{0: 10, 1: 0, 2: 0})
	final := map[cluster.NodeID]int64{0: 10, 1: 0, 2: 0}
	for _, m := range plan.Moves {
		final[m.From] -= m.Bytes
		final[m.To] += m.Bytes
	}
	var max, min int64 = 0, 1 << 62
	for _, v := range final {
		if v > max {
			max = v
		}
		if v < min {
			min = v
		}
	}
	if max-min > 1 {
		t.Errorf("post-plan spread %d–%d exceeds 1", min, max)
	}
}

// Property: the plan conserves bytes, only sends from surplus nodes, and
// moves exactly Σ max(0, load − target) bytes (volume-optimality).
func TestPlanRebalancePropertiesQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		loads := make(map[cluster.NodeID]int64, len(raw))
		var total int64
		for i, r := range raw {
			loads[cluster.NodeID(i)] = int64(r % 1000)
			total += int64(r % 1000)
		}
		plan := PlanRebalance(loads)
		if plan.TotalBytes != total {
			return false
		}
		final := make(map[cluster.NodeID]int64, len(loads))
		for k, v := range loads {
			final[k] = v
		}
		var moved int64
		for _, m := range plan.Moves {
			if m.Bytes <= 0 || m.From == m.To {
				return false
			}
			final[m.From] -= m.Bytes
			final[m.To] += m.Bytes
			moved += m.Bytes
		}
		if moved != plan.BytesMoved {
			return false
		}
		// Leveled within 1 byte and bytes conserved.
		var sum, max, min int64
		min = 1 << 62
		for _, v := range final {
			sum += v
			if v > max {
				max = v
			}
			if v < min {
				min = v
			}
		}
		return sum == total && max-min <= 1
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPlanAggregation(t *testing.T) {
	loads := map[cluster.NodeID]int64{0: 100, 1: 90, 2: 10, 3: 20, 4: 30}
	plan := PlanAggregation(loads, 2)
	if len(plan.Aggregators) != 2 {
		t.Fatalf("aggregators = %v", plan.Aggregators)
	}
	// The two most-loaded nodes are the sinks.
	if plan.Aggregators[0] != 0 || plan.Aggregators[1] != 1 {
		t.Errorf("aggregators = %v, want [0 1]", plan.Aggregators)
	}
	// Sinks keep their own data; only the other 60 bytes transfer.
	if plan.BytesTransferred != 60 {
		t.Errorf("BytesTransferred = %d, want 60", plan.BytesTransferred)
	}
	if got := plan.TransferFraction(); got != 0.24 {
		t.Errorf("TransferFraction = %g, want 0.24", got)
	}
}

func TestPlanAggregationDegenerate(t *testing.T) {
	if plan := PlanAggregation(nil, 3); plan.TransferFraction() != 0 {
		t.Error("empty plan should transfer nothing")
	}
	loads := map[cluster.NodeID]int64{0: 5, 1: 10}
	plan := PlanAggregation(loads, 0) // corrected to 1 sink
	if len(plan.Aggregators) != 1 || plan.Aggregators[0] != 1 {
		t.Errorf("aggregators = %v", plan.Aggregators)
	}
	all := PlanAggregation(loads, 99) // clamped to node count
	if len(all.Aggregators) != 2 || all.BytesTransferred != 0 {
		t.Errorf("all-sinks plan = %+v", all)
	}
}
