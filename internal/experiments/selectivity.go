package experiments

import (
	"fmt"

	"datanet/internal/apps"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/metrics"
	"datanet/internal/stats"
)

// Selectivity studies how DataNet's benefit varies with the target
// sub-dataset's popularity rank — an axis the paper's evaluation fixes at
// the most popular movie. Large targets dominate many blocks (accurately
// hashed, strongly clustered → big gains); tiny targets barely register in
// any block (Bloom-resident, little absolute skew → smaller gains but also
// large I/O savings per IOSaving).
func Selectivity(env *Env, ranks []int) (*Report, error) {
	if len(ranks) == 0 {
		ranks = []int{0, 2, 10, 50, 200}
	}
	var raw int64
	for _, sz := range env.Truth {
		raw += sz
	}
	r := newReport()
	t := metrics.NewTable(fmt.Sprintf("Extension — benefit vs target popularity (%s)", env.describe()),
		"movie rank", "size", "share of raw", "baseline max/avg", "datanet max/avg", "TopK improvement")
	for _, rank := range ranks {
		// Re-target the environment for this rank.
		retargeted := *env
		retargeted.Target = gen.MovieID(rank)
		retargeted.BlockTruth = env.blockTruth(retargeted.Target)
		c, err := retargeted.compare(movieTopK())
		if err != nil {
			return nil, err
		}
		size := env.Truth[retargeted.Target]
		share := 0.0
		if raw > 0 {
			share = float64(size) / float64(raw)
		}
		without, with, gain := r.balanceCells(fmt.Sprint(rank), env, c)
		t.Add(fmt.Sprint(rank), metrics.Bytes(size), metrics.Pct(share), without, with, gain)
		r.Values[fmt.Sprintf("%d/target_bytes", rank)] = float64(size)
		r.Values[fmt.Sprintf("%d/share_of_raw", rank)] = share
	}
	r.table(t)
	r.linef("  (the paper evaluates rank 0 only; the benefit persists down the popularity tail while absolute stakes shrink)")
	return r, nil
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

// WebLog runs the headline comparison on the WorldCup'98-style web access
// log — the third motivating dataset family the paper cites (flash-crowd
// clustering rather than release clustering) — for one team page.
// Defaults: 32 nodes, 128 blocks.
func WebLog(p WebLogParams) (*Report, error) {
	if p.Nodes <= 0 {
		p = WebLogParams{Nodes: 32, Racks: 4, Blocks: 128, BlockBytes: 256 << 10, Alpha: 0.3, Seed: 13}
	}
	const meanRecordBytes = 215
	recs := gen.WorldCup(gen.WorldCupConfig{
		Requests: int(p.BlockBytes) * p.Blocks / meanRecordBytes,
		Seed:     p.Seed,
	})
	env, err := buildEnv(&dataLog{recs: recs}, p.Nodes, p.Racks, hdfs.Config{BlockSize: p.BlockBytes, Seed: p.Seed}, p.Alpha, gen.TeamID(0))
	if err != nil {
		return nil, err
	}
	blockBytes := make([]float64, len(env.BlockTruth))
	for i, b := range env.BlockTruth {
		blockBytes[i] = float64(b)
	}
	cv := stats.Summarize(blockBytes).CV()
	c, err := env.compare(apps.NewTopKSearch(10, "GET frontpage schedule results"))
	if err != nil {
		return nil, err
	}
	without, with := env.maxOverAvg(c.without), env.maxOverAvg(c.with)

	r := newReport()
	r.linef("Extension — WorldCup'98-style web log (%s)", env.describe())
	r.linef("  per-block CV of %s: %.2f (flash-crowd clustering)", env.Target, cv)
	r.linef("  workload max/avg: baseline %.2f → datanet %.2f; Top-K improvement %s", without, with, metrics.Pct(c.gain))
	r.Values["block_cv"] = cv
	r.Values["baseline_max_avg"] = without
	r.Values["datanet_max_avg"] = with
	return r, nil
}
