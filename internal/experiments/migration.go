package experiments

import (
	"datanet/internal/apps"
	"datanet/internal/metrics"
	"datanet/internal/sched"
)

// Migration reproduces the §V-A.4 comparison against reactive rebalancing
// (SkewTune-style): after a baseline (locality-scheduled) filter phase,
// how much filtered data must migrate between nodes to level the workload?
// The paper measures "almost every cluster node will transfer or receive
// sub-datasets and the overall percentage of data migration is more than
// 30%" — volume DataNet never moves because it schedules the imbalance
// away up front, leaving a near-zero residual. The last line demonstrates
// the future-work extension, ElasticMap-informed aggregation routing.
func Migration(env *Env) (*Report, error) {
	c, err := env.compare(apps.WordCount{})
	if err != nil {
		return nil, err
	}
	plan := sched.PlanRebalance(c.without.NodeWorkload)
	residual := sched.PlanRebalance(c.with.NodeWorkload)
	agg := sched.PlanAggregation(c.with.NodeWorkload, 4)

	r := newReport()
	r.linef("§V-A.4 — reactive rebalancing vs DataNet (%s)", env.describe())
	r.linef("  post-hoc migration after locality scheduling: %s of all filtered data, %d/%d nodes involved (paper: >30%%, almost every node)",
		metrics.Pct(plan.Fraction()), plan.NodesInvolved, env.Topo.N())
	r.linef("  residual migration after DataNet scheduling:   %s", metrics.Pct(residual.Fraction()))
	r.linef("  future-work aggregation plan (4 sinks): %s of output crosses the network",
		metrics.Pct(agg.TransferFraction()))
	r.Values["baseline/fraction"] = plan.Fraction()
	r.Values["datanet/fraction"] = residual.Fraction()
	r.Values["aggregation/total_bytes"] = float64(agg.TotalBytes)
	return r, nil
}
