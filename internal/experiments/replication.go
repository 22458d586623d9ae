package experiments

import (
	"fmt"

	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/metrics"
)

// Replication sweeps the HDFS replication factor (default 1, 2, 3, 5).
// Each extra replica adds an edge per block to the bipartite graph
// (§IV-A), widening the locality-preserving assignments Algorithm 1 can
// choose from: replication 1 forces every block to one fixed node
// (scheduling is moot), 3 (the paper's setting) already gives
// near-balanced local-only packings, and higher factors buy little more.
func Replication(factors []int, p MovieParams) (*Report, error) {
	if p.Nodes == 0 {
		p = DefaultMovieParams()
	}
	if len(factors) == 0 {
		factors = []int{1, 2, 3, 5}
	}
	recs := movieLog(p)
	r := newReport()
	t := metrics.NewTable("Extension — replication factor shapes the bipartite graph (§IV-A)",
		"replication", "baseline max/avg", "datanet max/avg", "datanet local tasks", "TopK improvement")
	for _, rf := range factors {
		env, err := buildEnv(recs, p.Nodes, p.Racks, hdfs.Config{
			BlockSize: p.BlockBytes, Replication: rf, Seed: p.Seed,
		}, p.Alpha, gen.MovieID(0))
		if err != nil {
			return nil, err
		}
		c, err := env.compare(movieTopK())
		if err != nil {
			return nil, err
		}
		// The fraction of DataNet's tasks run on a replica holder.
		local := 0.0
		if tasks := c.with.LocalTasks + c.with.RemoteTasks; tasks > 0 {
			local = float64(c.with.LocalTasks) / float64(tasks)
		}
		without, with, gain := r.balanceCells(fmt.Sprint(rf), env, c)
		t.Add(fmt.Sprint(rf), without, with, metrics.Pct(local), gain)
		r.Values[fmt.Sprintf("%d/datanet_local", rf)] = local
	}
	r.table(t)
	r.linef("  (each replica adds an edge per block: more placement freedom, better locality-preserving balance)")
	return r, nil
}
