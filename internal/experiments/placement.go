package experiments

import (
	"fmt"

	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/metrics"
	"datanet/internal/placement"
)

// Placement compares HDFS replica-placement policies (random — the paper's
// characterization, rack-aware — the real HDFS default, and deterministic
// round-robin) for their effect on baseline imbalance and on DataNet's
// gain, at the default movie configuration. Placement decides which nodes
// *can* take a block locally, i.e. the shape of the bipartite graph
// Algorithm 1 works on. Storage CV is the per-node stored-bytes
// coefficient of variation.
func Placement(p MovieParams) (*Report, error) {
	if p.Nodes == 0 {
		p = DefaultMovieParams()
	}
	recs := movieLog(p)
	r := newReport()
	t := metrics.NewTable("Extension — replica-placement policies",
		"policy", "storage CV", "baseline max/avg", "datanet max/avg", "TopK improvement")
	for _, pol := range []placement.Policy{
		placement.Random{},
		placement.RackAware{},
		&placement.RoundRobin{},
	} {
		env, err := buildEnv(recs, p.Nodes, p.Racks, hdfs.Config{
			BlockSize: p.BlockBytes, Placement: pol, Seed: p.Seed,
		}, p.Alpha, gen.MovieID(0))
		if err != nil {
			return nil, err
		}
		c, err := env.compare(movieTopK())
		if err != nil {
			return nil, err
		}
		storageCV := env.FS.Balance()
		without, with, gain := r.balanceCells(pol.Name(), env, c)
		t.Add(pol.Name(), fmt.Sprintf("%.3f", storageCV), without, with, gain)
		r.Values[pol.Name()+"/storage_cv"] = storageCV
	}
	r.table(t)
	r.linef("  (placement shapes the bipartite graph Algorithm 1 schedules on; DataNet's gain holds across policies)")
	return r, nil
}
