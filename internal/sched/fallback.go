package sched

import (
	"errors"
	"fmt"

	"datanet/internal/cluster"
)

// This file implements graceful degradation for distribution-aware
// scheduling. DataNet's pickers consume per-block ElasticMap weights; when
// that meta-data is missing, truncated, or fails codec validation, the
// right behavior for a production scheduler is not to fail the job but to
// fall back to the locality baseline — the job still runs correctly, just
// without skew avoidance — and to say so in the run report.

// ErrBadWeights reports a weight vector the scheduler cannot trust.
var ErrBadWeights = errors.New("sched: invalid scheduling weights")

// ValidateWeights checks a per-block weight vector against the job's block
// count: it must be present, cover every block, and contain no negative
// entries. A failure means the meta-data does not describe this layout
// (stale encode, corrupt decode, wrong file) and weight-driven placement
// would be garbage-in/garbage-out.
func ValidateWeights(weights []int64, blocks int) error {
	if weights == nil {
		return fmt.Errorf("%w: missing", ErrBadWeights)
	}
	if len(weights) != blocks {
		return fmt.Errorf("%w: %d entries for %d blocks", ErrBadWeights, len(weights), blocks)
	}
	for i, w := range weights {
		if w < 0 {
			return fmt.Errorf("%w: negative weight %d at block %d", ErrBadWeights, w, i)
		}
	}
	return nil
}

// NewFallbackLocality returns a Factory producing the locality baseline
// tagged with the degradation reason, in its name and as a "fallback."
// prefix on every rule, so Result.SchedulerName and the audit record that
// the job ran degraded rather than silently pretending the requested
// policy was in force.
func NewFallbackLocality(reason string) Factory {
	return func(tasks []Task, _ *cluster.Topology) Picker {
		p := serve("hadoop-locality (fallback: "+reason+")", newLocality(input(tasks), false), tasks)
		p.prefix = "fallback."
		return p
	}
}
