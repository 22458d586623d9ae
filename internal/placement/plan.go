package placement

import (
	"errors"
	"fmt"

	"datanet/internal/cluster"
)

// A Plan is a batch of replica moves produced by an optimizer (hotspot
// re-replicator, annealer) and applied by the hdfs rebalancer. Plans are
// validated against the node-health table (cluster.Health) before
// application: a move that targets a suspected, unknown or draining node
// is a typed error, not a silent skip — the control plane must know its
// view and the optimizer's view diverged.

// AddReplica marks Move.From for moves that add a replica instead of
// relocating one.
const AddReplica cluster.NodeID = -1

// Move relocates one replica of Block from From to To; From == AddReplica
// means a new replica is created on To (the hot-block path).
type Move struct {
	// Block identifies the block within the caller's filesystem.
	Block int
	// From is the donor node, or AddReplica for a pure addition.
	From cluster.NodeID
	// To is the receiving node.
	To cluster.NodeID
	// Bytes is the network cost of shipping the replica.
	Bytes int64
}

// Plan is an ordered batch of moves plus the objective the optimizer
// reports for it (lower is better; meaning is policy-specific).
type Plan struct {
	// Moves apply in order; later moves may depend on earlier ones.
	Moves []Move
	// Policy names the optimizer that produced the plan.
	Policy string
	// ObjectiveBefore/After are the optimizer's reported objective values
	// around the plan. Optimizers guarantee After <= Before.
	ObjectiveBefore, ObjectiveAfter float64
}

// BytesMoved totals the network cost of the plan.
func (p Plan) BytesMoved() int64 {
	var total int64
	for _, m := range p.Moves {
		total += m.Bytes
	}
	return total
}

// HealthVeto is the one adapter from the node-health table to placement:
// a suspected or unknown node is VetoDead, a draining one
// VetoDecommissioned. It satisfies Request.Veto, so policies and plan
// validation share one health predicate.
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

// ErrVetoedTarget is the sentinel every VetoError unwraps to.
var ErrVetoedTarget = errors.New("placement: move targets vetoed node")

// VetoError reports the exact move and reason a plan was rejected for.
type VetoError struct {
	// Move is the offending move.
	Move Move
	// Reason says why the target is unacceptable.
	Reason VetoReason
}

// Error implements error.
func (e *VetoError) Error() string {
	return fmt.Sprintf("placement: move of block %d to node %d rejected: target is %s",
		e.Move.Block, e.Move.To, e.Reason)
}

// Unwrap lets errors.Is(err, ErrVetoedTarget) match.
func (e *VetoError) Unwrap() error { return ErrVetoedTarget }

// Validate rejects any move whose target the health table vetoes — moves
// toward draining or suspected nodes must fail loudly with a typed error
// rather than being silently dropped. The first offending move is
// reported; a nil error means every move targets a healthy node.
func (p Plan) Validate(h *cluster.Health) error {
	veto := HealthVeto(h)
	for _, m := range p.Moves {
		if r := veto(m.To); r != VetoNone {
			return &VetoError{Move: m, Reason: r}
		}
	}
	return nil
}
