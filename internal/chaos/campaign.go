package chaos

import (
	"fmt"
	"slices"

	"datanet/internal/shrink"
)

// Campaign is one seeded chaos campaign over plans of type P: the job
// engine's fault plans (Harness.Campaign) or the metadata cluster's
// membership plans (ClusterParams.Campaign). The campaign owns seed
// derivation, the run loop and shrinking; the hooks own everything about
// the system under test.
type Campaign[P any] struct {
	// Gen derives a run seed's plan, as a pure function of the seed.
	Gen func(seed uint64) P
	// Check runs a plan under the configuration its seed fixes and returns
	// every invariant breach. It tallies what the plan contained and what
	// the run saw into census. The shrinker re-runs it, so it must be
	// deterministic.
	Check func(seed uint64, plan P, census Census) []Violation
	// Edits lists a plan's one-step simplifications, fresh values in the
	// order the shrinker tries them.
	Edits func(P) []P
	// Summary renders a census for the campaign's summary line.
	Summary func(Census) string
}

// Census counts, by name, what a campaign's plans contained and what its
// runs saw.
type Census map[string]int

// Violation is one invariant breach: the seed that replays it (its plan
// and the configuration it ran under both derive from the seed), the arm
// it broke under, which invariant, and how.
type Violation struct {
	Seed      uint64
	Arm       string
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("seed=%d arm=%s invariant=%s: %s", v.Seed, v.Arm, v.Invariant, v.Detail)
}

// Report summarizes one campaign.
type Report struct {
	Runs       int
	Violations []Violation
	Census     Census
}

// Run checks runs seeds derived from the base seed.
func (c *Campaign[P]) Run(runs int, seed uint64) *Report {
	rep := &Report{Census: Census{}}
	r := newRNG(seed)
	for ; rep.Runs < runs; rep.Runs++ {
		s := r.next()
		rep.Violations = append(rep.Violations, c.Check(s, c.Gen(s), rep.Census)...)
	}
	return rep
}

// Shrink reduces the plan behind v to a minimal one that still breaks the
// same invariant under the same arm. The plan regenerates from v's seed,
// which also holds the configuration fixed while the plan shrinks.
func (c *Campaign[P]) Shrink(v Violation) P {
	return shrink.Greedy(c.Gen(v.Seed), c.Edits, func(plan P) bool {
		return slices.ContainsFunc(c.Check(v.Seed, plan, Census{}), func(w Violation) bool {
			return w.Arm == v.Arm && w.Invariant == v.Invariant
		})
	})
}
