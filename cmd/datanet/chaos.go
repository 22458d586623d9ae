package main

import (
	"encoding/json"
	"flag"
	"fmt"

	"datanet"
	"datanet/internal/chaos"
)

// chaosFlags is the chaos flag set (see analyzeFlags).
type chaosFlags struct {
	fs     *flag.FlagSet
	runs   int
	seed   uint64
	shrink bool
	cp     chaos.ClusterParams
}

func newChaosFlags() *chaosFlags {
	f := &chaosFlags{fs: flag.NewFlagSet("chaos", flag.ExitOnError), cp: chaos.DefaultClusterParams()}
	f.fs.IntVar(&f.runs, "runs", 100, "number of seeds to check")
	f.fs.Uint64Var(&f.seed, "seed", 1, "base seed of the campaign (plans and policy bundles derive from it)")
	f.fs.BoolVar(&f.shrink, "shrink", false, "reduce the first violating plan to a minimal counterexample")
	f.fs.IntVar(&f.cp.Nodes, "cluster", 0, "check the sharded metadata cluster with N nodes instead of the job engine (0 = engine)")
	f.fs.IntVar(&f.cp.Replicas, "replicas", 2, "followers per shard in cluster chaos")
	f.fs.IntVar(&f.cp.Shards, "shards", 4, "catalog shards in cluster chaos")
	f.fs.Var(&f.cp.Detect.Mode, "detect", "failure detector in cluster chaos: oracle | heartbeat | phi")
	return f
}

// runChaos drives the randomized robustness harness: N seeds, each
// drawing its own fault plan and policy bundle (detector, rebalancer,
// mitigation, partitioner), every arm, every invariant. Violations are
// printed with their replay seed and bundle and fail the command; -shrink
// additionally reduces the first violating plan to a minimal
// counterexample under that seed's bundle.
func runChaos(args []string) error {
	f := newChaosFlags()
	f.fs.Parse(args)
	if f.runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	if f.cp.Nodes > 0 {
		return runClusterChaos(f.runs, f.seed, f.cp, f.shrink)
	}
	p := chaos.DefaultParams()
	rep, err := chaos.Run(f.runs, f.seed, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "chaos: %d runs (%d crashes, %d slowdowns, %d read-error runs; %s): %d violations\n",
		rep.Runs, rep.Crashes, rep.Slowdowns, rep.ReadErrorRuns, rep.Census(), len(rep.Violations))
	if len(rep.Violations) == 0 {
		return nil
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(stdout, "  %s\n", v)
	}
	if f.shrink {
		v := rep.Violations[0]
		h, err := chaos.NewHarness(p)
		if err != nil {
			return err
		}
		min := chaos.Shrink(v.Plan, func(q *datanet.FaultPlan) bool {
			for _, w := range h.CheckPlan(v.Seed, q) {
				if w.Scheduler == v.Scheduler && w.Invariant == v.Invariant {
					return true
				}
			}
			return false
		})
		fmt.Fprintf(stdout, "minimal counterexample for seed %d (%s/%s):\n  %+v\n",
			v.Seed, v.Scheduler, v.Invariant, *min)
	}
	return fmt.Errorf("chaos: %d invariant violations in %d runs", len(rep.Violations), rep.Runs)
}

// runClusterChaos is the -cluster mode of the chaos subcommand: seeded
// crash/rejoin/decommission/addnode plans with client traffic against the
// sharded metadata cluster, checking the failover invariants (no lost
// arrays, no unflagged stale reads, exactly one primary per shard,
// bounded convergence, bit-identical replay).
func runClusterChaos(runs int, seed uint64, p chaos.ClusterParams, shrink bool) error {
	rep, err := chaos.RunCluster(runs, seed, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "chaos: %d cluster runs (%d nodes, %d shards, %d replicas) under %s detection: %d crashes, %d rejoins, %d decommissions, %d adds, %d appends, %d reads, %d retries: %d violations\n",
		rep.Runs, p.Nodes, p.Shards, p.Replicas, p.Detect.Mode,
		rep.Crashes, rep.Rejoins, rep.Decommissions, rep.AddNodes, rep.Appends, rep.Reads,
		rep.Retries, len(rep.Violations))
	if len(rep.Violations) == 0 {
		return nil
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(stdout, "  %s\n", v)
	}
	if shrink {
		v := rep.Violations[0]
		min := chaos.ShrinkCluster(v.Plan, p, v.Invariant)
		blob, err := json.MarshalIndent(min, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "minimal counterexample for seed %d (%s):\n%s\n", v.Seed, v.Invariant, blob)
	}
	return fmt.Errorf("chaos: %d cluster invariant violations in %d runs", len(rep.Violations), rep.Runs)
}
