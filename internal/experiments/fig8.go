package experiments

import (
	"datanet/internal/apps"
	"datanet/internal/metrics"
	"datanet/internal/stats"
)

// Fig8 reproduces paper Figure 8 and the §V-A.4 discussion: the GitHub
// "IssueEvent" sub-dataset is *not* content-clustered (its rate drifts
// smoothly), yet its distribution over blocks is still imbalanced, so
// DataNet still helps — just less than on the movie data (paper: longest
// Top-K map 125 s without vs 107 s with DataNet).
func Fig8(p EventParams) (*Report, error) {
	env, err := NewEventEnv(p)
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.linef("Figure 8 — GitHub IssueEvent (%s)", env.describe())
	blockMB := env.blockMB()
	figA := &metrics.Figure{Caption: "(a) IssueEvent size over HDFS blocks (MB at 64MB scale)"}
	figA.AddY("blocks", blockMB)
	r.figure("a_blocks", barFigure, figA)
	// The per-block coefficient of variation contrasts with a movie-style
	// distribution (lower = less clustered).
	cv := stats.Summarize(blockMB).CV()
	r.linef("  per-block CV = %.2f (no release-style clustering, but still uneven)", cv)
	r.Values["block_cv"] = cv

	c, err := env.compare(apps.NewTopKSearch(10, "opened closed merged issue"))
	if err != nil {
		return nil, err
	}
	figB := &metrics.Figure{Caption: "(b) workload over cluster nodes (MB at 64MB scale)"}
	figB.AddY("without DataNet", env.nodeMB(c.without))
	figB.AddY("with DataNet", env.nodeMB(c.with))
	r.figure("b_workloads", lineFigure, figB)
	// "The longest map execution time" (§V-A.4) is the analysis-map time
	// on the filtered sub-dataset, as in Fig. 6.
	longestWithout := stats.Summarize(NodeSeries(env.Topo, c.without.NodeCompute)).Max
	longestWith := stats.Summarize(NodeSeries(env.Topo, c.with.NodeCompute)).Max
	r.linef("  longest map: without=%.1fs, with=%.1fs (paper: 125s vs 107s); Top-K improvement %s (smaller than movie data, as in the paper)",
		longestWithout, longestWith, metrics.Pct(c.gain))
	r.Values["longest_map/baseline"] = longestWithout
	r.Values["longest_map/datanet"] = longestWith
	r.Values["improvement"] = c.gain
	return r, nil
}
