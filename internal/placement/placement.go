// Package placement unifies every replica-placement decision in the
// system behind one Policy interface. Before it existed, three layers
// chose where bytes live with three private mechanisms: the HDFS model's
// write-path policies, the name-node's re-replication target selection
// (least-utilized live node, used by crash repair), and the metadata
// cluster's rendezvous shard-replica ranking (internal/clusterd). None of
// them shared a veto rule. This package ports all three behind Policy —
// bit-for-bit, so pre-refactor golden schedules and chaos corpora are
// unchanged — and adapts the node-health table to every policy's veto
// (HealthVeto).
//
// The contract every policy honors:
//
//   - Chosen nodes are distinct and never repeat a node in Request.Have
//     (no block ever co-locates two replicas on one node).
//   - A vetoed node (suspected, unknown or draining in the node-health
//     table, see HealthVeto) is never chosen.
//   - Given identical inputs, Choose is deterministic (any randomness
//     comes from the caller-owned Request.RNG).
package placement

import (
	"errors"
	"fmt"
	"math/rand"

	"datanet/internal/cluster"
)

// VetoReason classifies why a candidate node must not receive a replica.
type VetoReason int

// Veto reasons, in escalating order of permanence.
const (
	// VetoNone marks an eligible node.
	VetoNone VetoReason = iota
	// VetoDead marks a node the control plane believes crashed or
	// suspects via its failure detector.
	VetoDead
	// VetoDecommissioned marks a draining or decommissioned node.
	VetoDecommissioned
	// VetoHasReplica marks a node already holding a replica of the block.
	VetoHasReplica
)

func (v VetoReason) String() string {
	switch v {
	case VetoNone:
		return "none"
	case VetoDead:
		return "dead-or-suspected"
	case VetoDecommissioned:
		return "decommissioned"
	case VetoHasReplica:
		return "has-replica"
	default:
		return fmt.Sprintf("veto(%d)", int(v))
	}
}

// ErrNotEnough reports that a strict Choose could not find Want eligible
// nodes.
var ErrNotEnough = errors.New("placement: not enough eligible nodes")

// Request is one placement decision: choose Want distinct node ids for a
// block. Exactly one of Topo or Candidates defines the node universe —
// Topo for the dense filesystem topology, Candidates for dynamic
// memberships (the metadata cluster, whose node ids outlive the dense
// range).
type Request struct {
	// Topo supplies the node universe and rack structure when the caller
	// lives on a fixed topology.
	Topo *cluster.Topology
	// Candidates, when non-nil, overrides the universe with an explicit
	// id list (already filtered to current members).
	Candidates []cluster.NodeID
	// RNG drives randomized policies; deterministic policies ignore it.
	RNG *rand.Rand
	// Want is how many distinct nodes to return.
	Want int
	// Partial permits returning fewer than Want nodes when the eligible
	// set runs out; strict requests (Partial false) get ErrNotEnough.
	Partial bool
	// Have lists nodes already holding replicas of the block; they are
	// never chosen (the co-location invariant).
	Have []cluster.NodeID
	// Usage is the stored bytes per node; load-aware policies prefer the
	// least-utilized targets.
	Usage map[cluster.NodeID]int64
	// Veto, when non-nil, reports nodes that must not be chosen
	// (liveness and decommission state from the caller's control plane).
	Veto func(cluster.NodeID) VetoReason
}

// HealthVeto is the one adapter from the node-health table to placement:
// a suspected or unknown node is VetoDead, a draining one
// VetoDecommissioned. It satisfies Request.Veto.
func HealthVeto(h *cluster.Health) func(cluster.NodeID) VetoReason {
	return func(id cluster.NodeID) VetoReason {
		switch {
		case h.Suspected(id):
			return VetoDead
		case h.Draining(id):
			return VetoDecommissioned
		}
		return VetoNone
	}
}

// universe returns the candidate node ids in canonical order.
func (r *Request) universe() []cluster.NodeID {
	if r.Candidates != nil {
		return r.Candidates
	}
	if r.Topo != nil {
		return r.Topo.IDs()
	}
	return nil
}

// eligible reports whether id may be chosen: not already a holder, not
// vetoed.
func (r *Request) eligible(id cluster.NodeID) bool {
	for _, h := range r.Have {
		if h == id {
			return false
		}
	}
	return r.Veto == nil || r.Veto(id) == VetoNone
}

// done builds the result respecting Want/Partial.
func (r *Request) done(out []cluster.NodeID) ([]cluster.NodeID, error) {
	if len(out) < r.Want && !r.Partial {
		return nil, fmt.Errorf("%w: want %d, found %d", ErrNotEnough, r.Want, len(out))
	}
	return out, nil
}

// Policy is the unified placement interface: score, choose and veto over
// candidate nodes. Implementations range from the HDFS write-path
// policies (Random, RackAware, RoundRobin) through the repair-path
// LeastUsed picker to the cluster's Rendezvous ranking.
type Policy interface {
	// Choose returns Want distinct eligible node ids (fewer only when
	// Request.Partial allows it).
	Choose(req Request) ([]cluster.NodeID, error)
	// Name identifies the policy in reports and traces.
	Name() string
}
