package placement

import (
	"sort"

	"datanet/internal/cluster"
	"datanet/internal/hashutil"
)

// The metadata cluster's shard map. Exported here so clusterd ranks a
// shard's primary and follower candidates with the same functions loadgen
// uses to compute the identical shard map client-side.

// ShardOf maps an array name to its shard: FNV-64a modulo the shard
// count. Clients (loadgen) compute the same function from the topology
// view, so routing needs no per-array directory.
func ShardOf(name string, shards int) int {
	return int(hashutil.Sum64String(name) % uint64(shards))
}

// RendezvousScore is the highest-random-weight score of (shard, node):
// the SplitMix64 finalizer over the weighted pair. Deterministic across
// processes and Go versions, like the chaos RNG that shares it.
func RendezvousScore(shard int, id cluster.NodeID) uint64 {
	return hashutil.Mix64(uint64(shard)*0x9e3779b97f4a7c15 + uint64(id)*0xd1342543de82ef95 + 0x2545f4914f6cdd1d)
}

// RendezvousRank orders candidate nodes for a shard by descending score
// (ties by lower ID, which cannot happen with distinct IDs but keeps the
// sort total). The prefix of the ranking is the shard's desired replica
// set: adding or removing one node perturbs only the shards whose ranking
// the change actually enters — the consistent-hashing property that keeps
// topology changes from reshuffling the whole catalog.
func RendezvousRank(shard int, ids []cluster.NodeID) []cluster.NodeID {
	out := append([]cluster.NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool {
		si, sj := RendezvousScore(shard, out[i]), RendezvousScore(shard, out[j])
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}
