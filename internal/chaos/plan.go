package chaos

import (
	"slices"

	"datanet/internal/cluster"
	"datanet/internal/faults"
)

// GenPlan derives one random-but-reproducible fault plan from a seed:
// some nodes crash (possibly rejoining later), some run degraded, and
// reads may fail transiently. Times are scaled by horizon — the healthy
// job's filter makespan — so crashes land where they hurt, not after the
// job is over. The same (seed, horizon, params) always yields the same
// plan, and the plan always passes faults.Plan.Validate: victims are
// distinct (one crash window per node) and every factor is in range.
func GenPlan(seed uint64, horizon float64, p Params) *faults.Plan {
	r := newRNG(seed)
	plan := &faults.Plan{Seed: int64(seed)}

	// Crash victims are a prefix of a node permutation, so no node gets
	// two overlapping crash windows.
	order := r.perm(p.Nodes)
	nCrash := r.intn(p.MaxCrashes + 1)
	for i := 0; i < nCrash && i < len(order); i++ {
		c := faults.Crash{
			Node: cluster.NodeID(order[i]),
			// Up to 1.5× the filter makespan: some crashes interrupt the
			// analysis phase instead of the filter.
			At: r.float() * horizon * 1.5,
		}
		if r.float() < p.RejoinProb {
			c.RejoinAt = c.At + (0.1+r.float())*horizon
		}
		plan.Crashes = append(plan.Crashes, c)
	}

	// Degraded nodes come from the other end of the permutation so a
	// crashed node is not also slowed (legal, but crashes dominate).
	nSlow := r.intn(p.MaxSlow + 1)
	for i := 0; i < nSlow; i++ {
		idx := len(order) - 1 - i
		if idx < nCrash {
			break
		}
		s := faults.Slowdown{Node: cluster.NodeID(order[idx])}
		// Each factor is degraded independently; 0 means "unchanged".
		if r.float() < 0.7 {
			s.CPU = 0.2 + 0.8*r.float()
		}
		if r.float() < 0.5 {
			s.Disk = 0.2 + 0.8*r.float()
		}
		if r.float() < 0.3 {
			s.Net = 0.2 + 0.8*r.float()
		}
		if s.CPU == 0 && s.Disk == 0 && s.Net == 0 {
			s.CPU = 0.5
		}
		plan.Slow = append(plan.Slow, s)
	}

	if r.float() < 0.5 {
		plan.Read.Prob = r.float() * p.MaxReadErrProb
	}
	return plan
}

// PlanEdits lists a plan's one-step simplifications in the order the
// shrinker tries them: drop one crash, drop one slowdown, drop the
// read-error clause, and once no entry can go, drop one crash's rejoin (a
// permanent kill is the simpler fault).
func PlanEdits(p *faults.Plan) []*faults.Plan {
	var out []*faults.Plan
	edit := func(change func(q *faults.Plan)) {
		q := &faults.Plan{Seed: p.Seed, Crashes: slices.Clone(p.Crashes), Slow: slices.Clone(p.Slow), Read: p.Read}
		change(q)
		out = append(out, q)
	}
	for i := range p.Crashes {
		edit(func(q *faults.Plan) { q.Crashes = slices.Delete(q.Crashes, i, i+1) })
	}
	for i := range p.Slow {
		edit(func(q *faults.Plan) { q.Slow = slices.Delete(q.Slow, i, i+1) })
	}
	if p.Read.Prob > 0 {
		edit(func(q *faults.Plan) { q.Read.Prob = 0 })
	}
	for i, c := range p.Crashes {
		if c.RejoinAt != 0 {
			edit(func(q *faults.Plan) { q.Crashes[i].RejoinAt = 0 })
		}
	}
	return out
}
