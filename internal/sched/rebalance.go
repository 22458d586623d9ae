package sched

import (
	"sort"

	"datanet/internal/cluster"
)

// This file models the *reactive* alternative the paper compares against
// (§V-A.4): dynamically monitoring runtime status (SkewTune-style) and
// migrating filtered sub-dataset bytes between nodes after the selection
// map phase. DataNet avoids this migration entirely by foreseeing the
// imbalance; the comparator quantifies how much data the reactive approach
// must move (the paper measures >30% on the movie dataset).

// MigrationPlan describes the byte movements needed to balance per-node
// workloads post-hoc.
type MigrationPlan struct {
	// Moves lists individual transfers.
	Moves []Move
	// BytesMoved is the total migrated volume.
	BytesMoved int64
	// TotalBytes is the workload volume across all nodes.
	TotalBytes int64
	// NodesInvolved counts nodes that send or receive at least one byte.
	NodesInvolved int
}

// Move is one sender→receiver transfer.
type Move struct {
	From, To cluster.NodeID
	Bytes    int64
}

// Fraction returns BytesMoved / TotalBytes.
func (p MigrationPlan) Fraction() float64 {
	if p.TotalBytes == 0 {
		return 0
	}
	return float64(p.BytesMoved) / float64(p.TotalBytes)
}

// PlanRebalance computes the minimum-volume migration that levels every
// node to the average workload: overloaded nodes ship their excess to
// underloaded ones (greedy matching of largest surplus to largest deficit,
// which is volume-optimal since any leveling must move exactly
// Σ max(0, load_i − avg) bytes).
func PlanRebalance(loads map[cluster.NodeID]int64) MigrationPlan {
	type ent struct {
		node cluster.NodeID
		diff int64 // load − avg (rounded)
	}
	var total int64
	ids := make([]cluster.NodeID, 0, len(loads))
	for id, l := range loads {
		total += l
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	n := int64(len(ids))
	if n == 0 {
		return MigrationPlan{}
	}
	avg := total / n
	rem := total % n
	var surplus, deficit []ent
	for k, id := range ids {
		target := avg
		if int64(k) < rem {
			target++ // distribute the remainder deterministically
		}
		d := loads[id] - target
		if d > 0 {
			surplus = append(surplus, ent{id, d})
		} else if d < 0 {
			deficit = append(deficit, ent{id, -d})
		}
	}
	sort.Slice(surplus, func(i, j int) bool { return surplus[i].diff > surplus[j].diff })
	sort.Slice(deficit, func(i, j int) bool { return deficit[i].diff > deficit[j].diff })

	plan := MigrationPlan{TotalBytes: total}
	involved := make(map[cluster.NodeID]bool)
	si, di := 0, 0
	for si < len(surplus) && di < len(deficit) {
		amt := surplus[si].diff
		if deficit[di].diff < amt {
			amt = deficit[di].diff
		}
		plan.Moves = append(plan.Moves, Move{From: surplus[si].node, To: deficit[di].node, Bytes: amt})
		plan.BytesMoved += amt
		involved[surplus[si].node] = true
		involved[deficit[di].node] = true
		surplus[si].diff -= amt
		deficit[di].diff -= amt
		if surplus[si].diff == 0 {
			si++
		}
		if deficit[di].diff == 0 {
			di++
		}
	}
	plan.NodesInvolved = len(involved)
	return plan
}

// ---------------------------------------------------------------------------
// Future-work extension: minimizing aggregation transfer with ElasticMap.

// AggregationPlan chooses the aggregators of the nodes' filtered output so
// cross-node transfer is minimized (the paper defers "optimization of the
// sub-dataset transfer problem" to future work; ElasticMap makes the
// per-node volumes known in advance, enabling this plan).
type AggregationPlan struct {
	// Aggregators lists the chosen sink nodes.
	Aggregators []cluster.NodeID
	// BytesTransferred is the total cross-node volume.
	BytesTransferred int64
	// TotalBytes is the total output volume.
	TotalBytes int64
}

// PlanAggregation picks the k nodes holding the most output as aggregators:
// their own bytes never cross the network, and every other node's output
// does, whichever aggregator it goes to.
func PlanAggregation(loads map[cluster.NodeID]int64, k int) AggregationPlan {
	if k <= 0 {
		k = 1
	}
	ids := make([]cluster.NodeID, 0, len(loads))
	var total int64
	for id, l := range loads {
		ids = append(ids, id)
		total += l
	}
	sort.Slice(ids, func(i, j int) bool {
		if loads[ids[i]] != loads[ids[j]] {
			return loads[ids[i]] > loads[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if k > len(ids) {
		k = len(ids)
	}
	plan := AggregationPlan{
		Aggregators: append([]cluster.NodeID(nil), ids[:k]...),
		TotalBytes:  total,
	}
	for _, id := range ids[k:] {
		plan.BytesTransferred += loads[id]
	}
	return plan
}

// TransferFraction returns BytesTransferred / TotalBytes.
func (p AggregationPlan) TransferFraction() float64 {
	if p.TotalBytes == 0 {
		return 0
	}
	return float64(p.BytesTransferred) / float64(p.TotalBytes)
}
