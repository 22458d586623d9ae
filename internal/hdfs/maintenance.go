package hdfs

import (
	"math"
	"slices"
	"sort"

	"datanet/internal/cluster"
)

// This file models the name-node's maintenance: re-replication after
// data-nodes die (HDFS keeps the replication factor invariant), and the
// balance and replication-health reports. FailNodes decides where replicas
// may go from a node-health table (cluster.Health) of the data-nodes it
// believes dead.

// FailNodes models the simultaneous loss of a set of data-nodes — a rack
// power event, or one crash while earlier victims are still down. Every
// replica on a dead node is dropped; blocks that still have a surviving
// copy are re-replicated back to the configured factor on live nodes
// (fewest-bytes-first, like the name-node), while blocks whose replicas
// all sat on dead nodes are unrecoverable and returned in lost. Failing to
// restore the full factor (too few live nodes) leaves blocks
// under-replicated rather than erroring: that is the degraded-but-running
// state a real name-node reports via fsck, and ReplicationHealth surfaces
// it here.
//
// dead is the name-node's whole current belief, so a node left out of a
// later call is live again. Calling FailNodes again with a superset of
// dead nodes is idempotent for the already-processed ones, which is how
// the engine applies crashes accumulating over a job's lifetime.
func (fs *FileSystem) FailNodes(dead []cluster.NodeID) (moved int, lost []BlockID) {
	health := cluster.NewHealth(fs.topo.N())
	known := 0
	for _, id := range dead {
		if int(id) >= 0 && int(id) < fs.topo.N() {
			health.Suspect(id)
			known++
		}
	}
	if known == 0 {
		return 0, nil
	}
	usage := fs.Usage()
	ids := fs.topo.IDs()
	for _, b := range fs.blocks {
		// Drop dead replicas in place, preserving order.
		live := b.Replicas[:0]
		for _, n := range b.Replicas {
			if !health.Suspected(n) {
				live = append(live, n)
			}
		}
		dropped := len(b.Replicas) - len(live)
		b.Replicas = live
		if dropped == 0 {
			continue
		}
		if len(b.Replicas) == 0 {
			lost = append(lost, b.ID)
			continue
		}
		for len(b.Replicas) < fs.cfg.Replication {
			// The least-utilized live node without a replica, ties to the
			// lower id (the scan ascends); usage is charged between picks.
			target := cluster.NodeID(-1)
			for _, id := range ids {
				if health.Suspected(id) || slices.Contains(b.Replicas, id) {
					continue
				}
				if target == -1 || usage[id] < usage[target] {
					target = id
				}
			}
			if target == -1 {
				break // under-replicated; ReplicationHealth will report it
			}
			b.Replicas = append(b.Replicas, target)
			usage[target] += b.Bytes
			moved++
		}
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	return moved, lost
}

// Balance returns the coefficient of variation of per-node stored bytes:
// how evenly replicas are spread.
func (fs *FileSystem) Balance() float64 {
	usage := fs.Usage()
	n := fs.topo.N()
	var total int64
	for _, id := range fs.topo.IDs() {
		total += usage[id]
	}
	mean := total / int64(n)
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, id := range fs.topo.IDs() {
		d := float64(usage[id] - mean)
		ss += d * d
	}
	return math.Sqrt(ss/float64(n)) / float64(mean)
}

// ReplicationHealth verifies every block still has the configured number
// of distinct replicas; it returns the ids of violating blocks (empty when
// healthy). Tests use it as the re-replication invariant.
func (fs *FileSystem) ReplicationHealth() []BlockID {
	var bad []BlockID
	for _, b := range fs.blocks {
		if len(b.Replicas) != fs.cfg.Replication {
			bad = append(bad, b.ID)
			continue
		}
		seen := make(map[cluster.NodeID]bool, len(b.Replicas))
		dup := false
		for _, n := range b.Replicas {
			if seen[n] {
				dup = true
				break
			}
			seen[n] = true
		}
		if dup {
			bad = append(bad, b.ID)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	return bad
}
