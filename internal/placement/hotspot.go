package placement

import (
	"math"
	"sort"

	"datanet/internal/cluster"
)

// The hot-block re-replicator, in the style of dddfs's
// ReplicationManager: blocks whose access count × dominant sub-dataset
// concentration marks them hot gain extra replicas on the least-loaded
// healthy nodes, so the scheduler has more local slots exactly where the
// sub-dataset skew concentrates work. This is the data-movement half of
// the paper's story — the scheduler works around skew, the re-replicator
// erodes it.

// BlockInfo is the per-block input every optimizer consumes: identity,
// size, current replica holders, and heat (the caller derives heat from
// ElasticMap block metas — access count scaled by the concentration of
// the dominant sub-dataset in the block).
type BlockInfo struct {
	// Block identifies the block within the caller's filesystem.
	Block int
	// Bytes is the replica size (network cost per move).
	Bytes int64
	// Replicas are the current holders.
	Replicas []cluster.NodeID
	// Heat scores how much sub-dataset-skewed work the block attracts;
	// zero means cold.
	Heat float64
}

// HotSpotConfig bounds a hot-block planning pass.
type HotSpotConfig struct {
	// MaxReplicas caps replicas per block (0 disables additions).
	MaxReplicas int
	// MaxMoves caps moves per pass; 0 means 8. Any positive heat
	// qualifies a block.
	MaxMoves int
}

// heatLoad returns per-node heat load with each block's heat split evenly
// across its replicas — the quantity hot-block replication levels out.
func heatLoad(blocks []BlockInfo, extra map[int][]cluster.NodeID) map[cluster.NodeID]float64 {
	load := make(map[cluster.NodeID]float64)
	for _, b := range blocks {
		holders := len(b.Replicas) + len(extra[b.Block])
		if holders == 0 {
			continue
		}
		share := b.Heat / float64(holders)
		for _, n := range b.Replicas {
			load[n] += share
		}
		for _, n := range extra[b.Block] {
			load[n] += share
		}
	}
	return load
}

// maxLoad is the objective hot-spot planning reports: the hottest node's
// heat load.
func maxLoad(load map[cluster.NodeID]float64) float64 {
	m := 0.0
	for _, l := range load {
		m = math.Max(m, l)
	}
	return m
}

// PlanHotSpots plans replica additions for the hottest blocks toward the
// least-utilized healthy nodes. Blocks are visited hottest-first (ties by
// lower block id); each gains at most one new replica per pass, chosen by
// the LeastUsed policy over a usage overlay that charges earlier
// additions, so one pass spreads additions instead of dog-piling the
// single emptiest node. The reported objective is the maximum per-node
// heat load (heat split evenly across holders).
func PlanHotSpots(blocks []BlockInfo, usage map[cluster.NodeID]int64, h *cluster.Health, cfg HotSpotConfig) Plan {
	plan := Plan{Policy: "hotspot"}
	before := heatLoad(blocks, nil)
	plan.ObjectiveBefore = maxLoad(before)
	plan.ObjectiveAfter = plan.ObjectiveBefore
	maxMoves := cfg.MaxMoves
	if maxMoves == 0 {
		maxMoves = 8
	}
	if cfg.MaxReplicas <= 0 {
		return plan
	}

	order := make([]int, len(blocks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := blocks[order[i]], blocks[order[j]]
		if a.Heat != b.Heat {
			return a.Heat > b.Heat
		}
		return a.Block < b.Block
	})

	// ids: the table's universe, ascending, matching LeastUsed's scan.
	ids := make([]cluster.NodeID, h.N())
	for i := range ids {
		ids[i] = cluster.NodeID(i)
	}
	veto := HealthVeto(h)
	over := make(map[cluster.NodeID]int64, maxMoves)
	added := make(map[int][]cluster.NodeID)
	for _, idx := range order {
		if len(plan.Moves) >= maxMoves {
			break
		}
		b := blocks[idx]
		if b.Heat <= 0 || len(b.Replicas) >= cfg.MaxReplicas {
			continue
		}
		eff := make(map[cluster.NodeID]int64, len(ids))
		for _, id := range ids {
			eff[id] = usage[id] + over[id]
		}
		target, err := (LeastUsed{}).Choose(Request{
			Candidates: ids,
			Want:       1,
			Have:       b.Replicas,
			Usage:      eff,
			BlockBytes: b.Bytes,
			Veto:       veto,
		})
		if err != nil || len(target) == 0 {
			continue // no healthy node without a replica; block stays as-is
		}
		to := target[0]
		// Guard the objective: the least-utilized node by *bytes* may
		// already be heat-hot, and handing it a share of this block's heat
		// could raise the maximum. Such an addition is refused — the pass
		// only ever levels heat, never piles it up.
		added[b.Block] = append(added[b.Block], to)
		if next := maxLoad(heatLoad(blocks, added)); next > plan.ObjectiveAfter {
			added[b.Block] = added[b.Block][:len(added[b.Block])-1]
			continue
		} else {
			plan.ObjectiveAfter = next
		}
		over[to] += b.Bytes
		plan.Moves = append(plan.Moves, Move{Block: b.Block, From: AddReplica, To: to, Bytes: b.Bytes})
	}
	return plan
}
