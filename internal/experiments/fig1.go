package experiments

import (
	"cmp"
	"slices"

	"datanet/internal/apps"
	"datanet/internal/metrics"
	"datanet/internal/stats"
)

// Fig1 reproduces paper Figure 1: (a) the distribution of one sub-dataset
// (a single movie) over HDFS blocks, and (b) the workload distribution over
// cluster nodes that block-locality scheduling induces. Pass a zero
// MovieParams for defaults (the paper uses a 32-node cluster and 128
// blocks here).
func Fig1(p MovieParams) (*Report, error) {
	if p.Nodes == 0 {
		p = DefaultMovieParams()
		p.Blocks = 128
	}
	env, err := NewMovieEnv(p)
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.linef("Figure 1 — content clustering causes imbalanced computing (%s)", env.describe())

	blockMB := env.blockMB()
	// The fraction of the sub-dataset inside the 30 fullest blocks (the
	// paper: "the first 30 blocks contain the most of our desirable data").
	sorted := slices.Clone(blockMB)
	slices.SortFunc(sorted, func(a, b float64) int { return cmp.Compare(b, a) })
	var top, all float64
	for i, v := range sorted {
		if i < 30 {
			top += v
		}
		all += v
	}
	top30 := 0.0
	if all > 0 {
		top30 = top / all
	}
	figA := &metrics.Figure{Caption: "(a) sub-dataset size over HDFS blocks (MB at 64MB-block scale)"}
	figA.AddY("blocks", blockMB)
	r.figure("a_blocks", barFigure, figA)
	bs := stats.Summarize(blockMB)
	r.linef("  block min/mean/max = %.2f / %.2f / %.2f MB; top-30 blocks hold %s of the sub-dataset",
		bs.Min, bs.Mean, bs.Max, metrics.Pct(top30))
	r.Values["top30_share"] = top30

	run, err := env.run(apps.WordCount{}, locality)
	if err != nil {
		return nil, err
	}
	nodeMB := env.nodeMB(run)
	figB := &metrics.Figure{Caption: "(b) workload over cluster nodes, Hadoop locality scheduling (MB)"}
	figB.AddY("nodes", nodeMB)
	r.figure("b_nodes", barFigure, figB)
	ns := stats.Summarize(nodeMB)
	r.linef("  node min/mean/max = %.2f / %.2f / %.2f MB (max/mean = %.2fx)",
		ns.Min, ns.Mean, ns.Max, ns.ImbalanceRatio())
	r.Values["node_max_over_mean"] = ns.ImbalanceRatio()
	return r, nil
}
