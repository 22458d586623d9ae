package chaos

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	// deterministic; Run calls it from several goroutines at once, each
	// with its own census.
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

// Run checks runs seeds derived from the base seed on GOMAXPROCS
// workers. The seeds are drawn up front, in the order one loop would draw
// them; each worker pulls the next index and tallies into its own census.
// The censuses are summed and the violations concatenated in seed order,
// so the report is the same at any worker count.
func (c *Campaign[P]) Run(runs int, seed uint64) *Report {
	r := newRNG(seed)
	seeds := make([]uint64, runs)
	for i := range seeds {
		seeds[i] = r.next()
	}
	found := make([][]Violation, runs)
	censuses := make([]Census, min(runtime.GOMAXPROCS(0), runs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range censuses {
		censuses[w] = Census{}
		wg.Add(1)
		go func(census Census) {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(runs); i = next.Add(1) - 1 {
				found[i] = c.Check(seeds[i], c.Gen(seeds[i]), census)
			}
		}(censuses[w])
	}
	wg.Wait()
	rep := &Report{Runs: runs, Census: Census{}}
	for _, census := range censuses {
		for k, n := range census {
			rep.Census[k] += n
		}
	}
	for _, vs := range found {
		rep.Violations = append(rep.Violations, vs...)
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
