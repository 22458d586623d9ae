package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"datanet/internal/chaos"
)

// chaosFlags is the chaos flag set (see analyzeFlags).
type chaosFlags struct {
	fs                              *flag.FlagSet
	runs, cluster, replicas, shards uint
	seed                            uint64
	shrink                          bool
	cp                              chaos.ClusterParams
}

func newChaosFlags() *chaosFlags {
	f := &chaosFlags{fs: flag.NewFlagSet("chaos", flag.ExitOnError), cp: chaos.DefaultClusterParams()}
	f.fs.UintVar(&f.runs, "runs", 100, "number of seeds to check")
	f.fs.Uint64Var(&f.seed, "seed", 1, "base seed of the campaign (plans and policy bundles derive from it)")
	f.fs.BoolVar(&f.shrink, "shrink", false, "reduce the first violating plan to a minimal counterexample")
	f.fs.UintVar(&f.cluster, "cluster", 0, "check the sharded metadata cluster with N nodes instead of the job engine (0 = engine)")
	f.fs.UintVar(&f.replicas, "replicas", uint(f.cp.Replicas), "followers per shard in cluster chaos")
	f.fs.UintVar(&f.shards, "shards", uint(f.cp.Shards), "catalog shards in cluster chaos")
	f.fs.Var(&f.cp.Detect.Mode, "detect", "failure detector in cluster chaos: oracle | heartbeat")
	return f
}

// runChaos drives a chaos campaign: the job engine's by default, where
// every seed draws its own fault plan and policy bundle (detector,
// mitigation, partitioner) and runs every arm; with -cluster,
// the sharded metadata cluster's crash/rejoin/decommission/addnode plans
// against its failover invariants. Violations print with their replay
// seed and fail the command; -shrink also prints the first violating plan
// reduced to a minimal counterexample, as JSON that replays.
func runChaos(args []string) error {
	f := newChaosFlags()
	f.fs.Parse(args)
	if f.runs == 0 {
		usageError(f.fs, "-runs must be at least 1")
	}
	if f.cluster == 0 {
		f.fs.Visit(func(fl *flag.Flag) {
			if fl.Name == "replicas" || fl.Name == "shards" || fl.Name == "detect" {
				usageError(f.fs, "-%s applies only with -cluster", fl.Name)
			}
		})
		h, err := chaos.NewHarness(chaos.DefaultParams())
		if err != nil {
			return err
		}
		return runCampaign(h.Campaign(), f)
	}
	if f.replicas == 0 || f.shards == 0 {
		usageError(f.fs, "-replicas and -shards must be at least 1")
	}
	f.cp.Nodes, f.cp.Replicas, f.cp.Shards = int(f.cluster), int(f.replicas), int(f.shards)
	return runCampaign(f.cp.Campaign(), f)
}

// usageError rejects input fs parsed but the command cannot run the way a
// parse error is rejected: message, usage, exit status 2.
func usageError(fs *flag.FlagSet, format string, args ...any) {
	fmt.Fprintf(fs.Output(), format+"\n", args...)
	fs.Usage()
	os.Exit(2)
}

// runCampaign runs one campaign and prints its summary line, its
// violations and, under -shrink, {seed, plan} of the first one shrunk.
func runCampaign[P any](c *chaos.Campaign[P], f *chaosFlags) error {
	rep := c.Run(int(f.runs), f.seed)
	fmt.Fprintf(stdout, "chaos: %d %s: %d violations\n", rep.Runs, c.Summary(rep.Census), len(rep.Violations))
	if len(rep.Violations) == 0 {
		return nil
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(stdout, "  %s\n", v)
	}
	if f.shrink {
		v := rep.Violations[0]
		blob, err := json.MarshalIndent(struct {
			Seed uint64 `json:"seed"`
			Plan P      `json:"plan"`
		}{v.Seed, c.Shrink(v)}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "minimal counterexample (%s, %s):\n%s\n", v.Arm, v.Invariant, blob)
	}
	return fmt.Errorf("chaos: %d invariant violations in %d runs", len(rep.Violations), rep.Runs)
}
