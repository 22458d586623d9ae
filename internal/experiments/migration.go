package experiments

import (
	"fmt"
	"strings"

	"datanet/internal/apps"
	"datanet/internal/metrics"
	"datanet/internal/sched"
)

// MigrationResult reproduces the §V-A.4 comparison against reactive
// rebalancing (SkewTune-style): after a baseline (locality-scheduled)
// filter phase, how much filtered data must migrate between nodes to level
// the workload? The paper measures "almost every cluster node will
// transfer or receive sub-datasets and the overall percentage of data
// migration is more than 30%" — volume DataNet never moves because it
// schedules the imbalance away up front.
type MigrationResult struct {
	Env  *Env
	Plan sched.MigrationPlan
	// DataNetPlan is the residual migration needed *after* DataNet
	// scheduling (should be near zero).
	DataNetPlan sched.MigrationPlan
	// AggPlan demonstrates the future-work extension: ElasticMap-informed
	// aggregation routing.
	AggPlan sched.AggregationPlan
}

// Migration runs the comparison.
func Migration(env *Env) (*MigrationResult, error) {
	app := apps.WordCount{}
	baseline, err := env.RunBaseline(app)
	if err != nil {
		return nil, err
	}
	withDN, err := env.RunDataNet(app)
	if err != nil {
		return nil, err
	}
	return &MigrationResult{
		Env:         env,
		Plan:        sched.PlanRebalance(baseline.NodeWorkload),
		DataNetPlan: sched.PlanRebalance(withDN.NodeWorkload),
		AggPlan:     sched.PlanAggregation(withDN.NodeWorkload, 4),
	}, nil
}

// String renders the comparison.
func (r *MigrationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "§V-A.4 — reactive rebalancing vs DataNet (%s)\n", r.Env.describe())
	fmt.Fprintf(&sb, "  post-hoc migration after locality scheduling: %s of all filtered data, %d/%d nodes involved (paper: >30%%, almost every node)\n",
		metrics.Pct(r.Plan.Fraction()), r.Plan.NodesInvolved, r.Env.Topo.N())
	fmt.Fprintf(&sb, "  residual migration after DataNet scheduling:   %s\n", metrics.Pct(r.DataNetPlan.Fraction()))
	fmt.Fprintf(&sb, "  future-work aggregation plan (4 sinks): %s of output crosses the network\n",
		metrics.Pct(r.AggPlan.TransferFraction()))
	return sb.String()
}
