package experiments

import (
	"fmt"
	"strings"

	"datanet/internal/apps"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/metrics"
	"datanet/internal/stats"
)

// SelectivityRow is one target popularity rank's outcome.
type SelectivityRow struct {
	Rank        int
	TargetBytes int64
	// ShareOfRaw is the target's fraction of the whole dataset.
	ShareOfRaw float64
	// BaselineMaxAvg / DataNetMaxAvg are the filtered-workload imbalances.
	BaselineMaxAvg, DataNetMaxAvg float64
	// Improvement is the Top-K analysis-time gain.
	Improvement float64
}

// SelectivityResult studies how DataNet's benefit varies with the target
// sub-dataset's popularity — an axis the paper's evaluation fixes at the
// most popular movie. Large targets dominate many blocks (accurately
// hashed, strongly clustered → big gains); tiny targets barely register in
// any block (Bloom-resident, little absolute skew → smaller gains but also
// large I/O savings per IOSaving).
type SelectivityResult struct {
	Env  *Env
	Rows []SelectivityRow
}

// Selectivity sweeps target ranks on one environment.
func Selectivity(env *Env, ranks []int) (*SelectivityResult, error) {
	if len(ranks) == 0 {
		ranks = []int{0, 2, 10, 50, 200}
	}
	app := apps.NewTopKSearch(10, "plot twist ending amazing director")
	var raw int64
	for _, sz := range env.Truth {
		raw += sz
	}
	res := &SelectivityResult{Env: env}
	for _, rank := range ranks {
		sub := gen.MovieID(rank)
		// Re-target the environment for this rank.
		retargeted := *env
		retargeted.Target = sub
		var err error
		retargeted.BlockTruth, err = env.FS.SubDistribution(env.File, sub)
		if err != nil {
			return nil, err
		}
		base, err := retargeted.RunBaseline(app)
		if err != nil {
			return nil, err
		}
		dn, err := retargeted.RunDataNet(app)
		if err != nil {
			return nil, err
		}
		row := SelectivityRow{
			Rank:        rank,
			TargetBytes: env.Truth[sub],
		}
		if raw > 0 {
			row.ShareOfRaw = float64(env.Truth[sub]) / float64(raw)
		}
		row.BaselineMaxAvg = stats.Summarize(NodeSeries(env.Topo, base.NodeWorkload)).ImbalanceRatio()
		row.DataNetMaxAvg = stats.Summarize(NodeSeries(env.Topo, dn.NodeWorkload)).ImbalanceRatio()
		if base.AnalysisTime > 0 {
			row.Improvement = (base.AnalysisTime - dn.AnalysisTime) / base.AnalysisTime
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the sweep.
func (r *SelectivityResult) String() string {
	t := metrics.NewTable(fmt.Sprintf("Extension — benefit vs target popularity (%s)", r.Env.describe()),
		"movie rank", "size", "share of raw", "baseline max/avg", "datanet max/avg", "TopK improvement")
	for _, row := range r.Rows {
		t.Add(fmt.Sprint(row.Rank), metrics.Bytes(row.TargetBytes), metrics.Pct(row.ShareOfRaw),
			fmt.Sprintf("%.2f", row.BaselineMaxAvg), fmt.Sprintf("%.2f", row.DataNetMaxAvg),
			metrics.Pct(row.Improvement))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("  (the paper evaluates rank 0 only; the benefit persists down the popularity tail while absolute stakes shrink)\n")
	return sb.String()
}

// ---------------------------------------------------------------------------

// WebLogResult runs the headline comparison on the WorldCup'98-style web
// access log — the third motivating dataset family the paper cites
// (flash-crowd clustering rather than release clustering).
type WebLogResult struct {
	Env *Env
	// Target is the analyzed team page.
	Target string
	// BlockCV is the per-block distribution's coefficient of variation.
	BlockCV float64
	// Improvement is the Top-K analysis gain; MaxAvg* the balances.
	Improvement                   float64
	BaselineMaxAvg, DataNetMaxAvg float64
}

// WebLogParams sizes the web-log environment.
type WebLogParams struct {
	Nodes      int
	Racks      int
	Blocks     int
	BlockBytes int64
	Alpha      float64
	Seed       int64
}

// WebLog runs the experiment (defaults: 32 nodes, 128 blocks).
func WebLog(p WebLogParams) (*WebLogResult, error) {
	if p.Nodes <= 0 {
		p = WebLogParams{Nodes: 32, Racks: 4, Blocks: 128, BlockBytes: 256 << 10, Alpha: 0.3, Seed: 13}
	}
	const meanRecordBytes = 215
	recs := gen.WorldCup(gen.WorldCupConfig{
		Requests: int(p.BlockBytes) * p.Blocks / meanRecordBytes,
		Seed:     p.Seed,
	})
	env, err := buildEnv(recs, p.Nodes, p.Racks, hdfs.Config{BlockSize: p.BlockBytes, Seed: p.Seed}, p.Alpha, gen.TeamID(0))
	if err != nil {
		return nil, err
	}
	res := &WebLogResult{Env: env, Target: env.Target}
	var blockMB []float64
	for _, b := range env.BlockTruth {
		blockMB = append(blockMB, float64(b))
	}
	res.BlockCV = stats.Summarize(blockMB).CV()
	app := apps.NewTopKSearch(10, "GET frontpage schedule results")
	base, err := env.RunBaseline(app)
	if err != nil {
		return nil, err
	}
	dn, err := env.RunDataNet(app)
	if err != nil {
		return nil, err
	}
	res.BaselineMaxAvg = stats.Summarize(NodeSeries(env.Topo, base.NodeWorkload)).ImbalanceRatio()
	res.DataNetMaxAvg = stats.Summarize(NodeSeries(env.Topo, dn.NodeWorkload)).ImbalanceRatio()
	if base.AnalysisTime > 0 {
		res.Improvement = (base.AnalysisTime - dn.AnalysisTime) / base.AnalysisTime
	}
	return res, nil
}

// String renders the web-log experiment.
func (r *WebLogResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension — WorldCup'98-style web log (%s)\n", r.Env.describe())
	fmt.Fprintf(&sb, "  per-block CV of %s: %.2f (flash-crowd clustering)\n", r.Target, r.BlockCV)
	fmt.Fprintf(&sb, "  workload max/avg: baseline %.2f → datanet %.2f; Top-K improvement %s\n",
		r.BaselineMaxAvg, r.DataNetMaxAvg, metrics.Pct(r.Improvement))
	return sb.String()
}
