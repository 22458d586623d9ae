package experiments

import (
	"fmt"
	"math"
	"sort"

	"datanet/internal/apps"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
	"datanet/internal/stats"
)

// Theory validates §II-B end to end: a dataset is generated so each block's
// target-sub-dataset bytes follow Γ(k, θ) exactly (the paper's model),
// locality scheduling splits the blocks over the cluster, and the measured
// number of extreme-workload nodes (averaged over trials layouts) is
// compared with the analytic expectation m·P(Z < E/2) and m·P(Z > 2E), as
// is the 95th-percentile node workload normalized by E[Z]. It also fits a
// Gamma to the generated per-block sizes (method of moments + MLE) and
// reports the Kolmogorov–Smirnov distance against its 5% critical value
// 1.36/√n, closing the loop on the modeling assumption. Zero params default
// to the paper's Γ(1.2, 7) with 512 blocks on a 128-node cluster (the
// §II-B example quotes m=128), averaged over 5 random layouts.
func Theory(model stats.Gamma, nBlocks, nodes, trials int) (*Report, error) {
	if !model.Valid() {
		model = stats.Gamma{K: 1.2, Theta: 7}
	}
	if nBlocks <= 0 {
		nBlocks = 512
	}
	if nodes <= 0 {
		nodes = 128
	}
	if trials <= 0 {
		trials = 5
	}
	z := stats.NodeWorkload(model, nBlocks, nodes)
	e := z.Mean()

	var belowSum, aboveSum float64
	var normLoads []float64
	var sample []float64
	for trial := 0; trial < trials; trial++ {
		blocks := gen.GammaBlocks(gen.GammaBlockConfig{
			Blocks:     nBlocks,
			BlockBytes: 64 << 10,
			TargetSub:  "target",
			Shape:      model.K,
			Scale:      model.Theta,
			Seed:       int64(1000 + trial),
		})
		if trial == 0 {
			// The model's sample is each generated block's target bytes,
			// not the stored blocks' truth: HDFS re-cuts the flattened log
			// by size alone, so its blocks need not match the generated
			// ones (the suite's first layout stores 513).
			for _, blk := range blocks {
				var target int64
				for _, r := range blk {
					if r.Sub == "target" {
						target += r.Size()
					}
				}
				sample = append(sample, float64(target)/1024)
			}
		}
		// The locality job reads no estimates: the stored log is all it needs.
		fs, err := storeLog(&dataLog{recs: gen.Flatten(blocks)}, hdfs.ScaledNodes(nodes, 4, 64<<10), 4, hdfs.Config{BlockSize: 64 << 10, Seed: int64(trial)})
		if err != nil {
			return nil, err
		}
		run, err := mapreduce.Run(job(fs, logFile, "target", apps.WordCount{}, locality, nil))
		if err != nil {
			return nil, err
		}
		loads := NodeSeries(fs.Topology(), run.NodeWorkload)
		s := stats.Summarize(loads)
		for _, l := range loads {
			if l < s.Mean/2 {
				belowSum++
			}
			if l > 2*s.Mean {
				aboveSum++
			}
			if s.Mean > 0 {
				normLoads = append(normLoads, l/s.Mean)
			}
		}
	}
	sort.Float64s(normLoads)
	fitMoments, fitMLE := stats.FitGammaMoments(sample), stats.FitGammaMLE(sample)
	ks, ksCritical := stats.KSStatistic(sample, model), 1.36/math.Sqrt(float64(len(sample)))

	r := newReport()
	r.linef("Theory validation — §II-B model end to end (Γ(k=%.2f, θ=%.2f), %d blocks, %d nodes, %d layouts)",
		model.K, model.Theta, nBlocks, nodes, trials)
	t := metrics.NewTable("", "quantity", "analytic", "measured")
	for _, q := range []struct {
		name, key          string
		analytic, measured float64
	}{
		{"E[#nodes < E/2]", "below_half", float64(nodes) * z.CDF(e/2), belowSum / float64(trials)},
		{"E[#nodes > 2E]", "above_double", float64(nodes) * z.Tail(2*e), aboveSum / float64(trials)},
		{"P95 workload / mean", "p95", z.Quantile(0.95) / e, stats.NearestRank(normLoads, 0.95)},
	} {
		t.Add(q.name, fmt.Sprintf("%.2f", q.analytic), fmt.Sprintf("%.2f", q.measured))
		r.Values[q.key+"/analytic"] = q.analytic
		r.Values[q.key+"/measured"] = q.measured
	}
	r.table(t)
	r.linef("  parameter recovery: moments k=%.2f θ=%.2f; MLE k=%.2f θ=%.2f (true k=%.2f θ=%.2f)",
		fitMoments.K, fitMoments.Theta, fitMLE.K, fitMLE.Theta, model.K, model.Theta)
	r.linef("  goodness of fit: KS=%.3f (5%% critical %.3f)", ks, ksCritical)
	r.Values["fit/moments_k"] = fitMoments.K
	r.Values["fit/mle_k"] = fitMLE.K
	r.Values["fit/mle_theta"] = fitMLE.Theta
	r.Values["ks"] = ks
	r.Values["ks_critical"] = ksCritical
	return r, nil
}
