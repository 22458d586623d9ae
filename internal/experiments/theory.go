package experiments

import (
	"fmt"
	"math"
	"strings"

	"datanet/internal/apps"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/metrics"
	"datanet/internal/records"
	"datanet/internal/stats"
)

// TheoryResult validates §II-B end to end: a dataset is generated so each
// block's target-sub-dataset bytes follow Γ(k, θ) exactly (the paper's
// model), locality scheduling splits the blocks over the cluster, and the
// measured number of extreme-workload nodes is compared with the analytic
// expectation m·P(Z < lo·E) and m·P(Z > hi·E). It also fits a Gamma to the
// generated per-block sizes (method of moments + MLE) and reports the
// goodness of fit, closing the loop on the modeling assumption.
type TheoryResult struct {
	Model   stats.Gamma
	NBlocks int
	Nodes   int
	Trials  int
	// FitMoments/FitMLE are the recovered parameters.
	FitMoments, FitMLE stats.Gamma
	// KS is the Kolmogorov–Smirnov distance of the sample vs the model.
	KS float64
	// KSCritical is the 5% critical value 1.36/√n.
	KSCritical float64
	// Expected*/Measured* compare analytic and empirical extreme-node
	// counts (averaged over Trials layouts).
	ExpectedBelowHalf, MeasuredBelowHalf     float64
	ExpectedAboveDouble, MeasuredAboveDouble float64
	// P95Predicted/P95Measured compare the analytic 95th-percentile node
	// workload (Z's quantile, normalized by E[Z]) with the empirical one.
	P95Predicted, P95Measured float64
}

// Theory runs the validation. Zero params default to the paper's Γ(1.2, 7)
// with 512 blocks on a 32-node cluster, averaged over 5 random layouts.
func Theory(model stats.Gamma, nBlocks, nodes, trials int) (*TheoryResult, error) {
	if !model.Valid() {
		model = stats.Gamma{K: 1.2, Theta: 7}
	}
	if nBlocks <= 0 {
		nBlocks = 512
	}
	if nodes <= 0 {
		nodes = 128 // the paper's §II-B example quotes m=128
	}
	if trials <= 0 {
		trials = 5
	}
	res := &TheoryResult{Model: model, NBlocks: nBlocks, Nodes: nodes, Trials: trials}

	z := stats.NodeWorkload(model, nBlocks, nodes)
	e := z.Mean()
	res.ExpectedBelowHalf = float64(nodes) * z.CDF(e/2)
	res.ExpectedAboveDouble = float64(nodes) * z.Tail(2*e)
	res.P95Predicted = z.Quantile(0.95) / e

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
			for _, blk := range blocks {
				kb := float64(records.BySub(blk)["target"]) / 1024
				sample = append(sample, kb)
			}
		}
		env, err := buildEnv(gen.Flatten(blocks), nodes, 4, hdfs.Config{BlockSize: 64 << 10, Seed: int64(trial)}, 0.3, "target")
		if err != nil {
			return nil, err
		}
		run, err := env.RunBaseline(apps.WordCount{})
		if err != nil {
			return nil, err
		}
		loads := NodeSeries(env.Topo, run.NodeWorkload)
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
	res.P95Measured = stats.Percentile(normLoads, 0.95)
	res.MeasuredBelowHalf = belowSum / float64(trials)
	res.MeasuredAboveDouble = aboveSum / float64(trials)

	res.FitMoments = stats.FitGammaMoments(sample)
	res.FitMLE = stats.FitGammaMLE(sample)
	res.KS = stats.KSStatistic(sample, model)
	res.KSCritical = 1.36 / math.Sqrt(float64(len(sample)))
	return res, nil
}

// String renders the validation.
func (r *TheoryResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Theory validation — §II-B model end to end (Γ(k=%.2f, θ=%.2f), %d blocks, %d nodes, %d layouts)\n",
		r.Model.K, r.Model.Theta, r.NBlocks, r.Nodes, r.Trials)
	t := metrics.NewTable("", "quantity", "analytic", "measured")
	t.Add("E[#nodes < E/2]", fmt.Sprintf("%.2f", r.ExpectedBelowHalf), fmt.Sprintf("%.2f", r.MeasuredBelowHalf))
	t.Add("E[#nodes > 2E]", fmt.Sprintf("%.2f", r.ExpectedAboveDouble), fmt.Sprintf("%.2f", r.MeasuredAboveDouble))
	t.Add("P95 workload / mean", fmt.Sprintf("%.2f", r.P95Predicted), fmt.Sprintf("%.2f", r.P95Measured))
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "  parameter recovery: moments k=%.2f θ=%.2f; MLE k=%.2f θ=%.2f (true k=%.2f θ=%.2f)\n",
		r.FitMoments.K, r.FitMoments.Theta, r.FitMLE.K, r.FitMLE.Theta, r.Model.K, r.Model.Theta)
	fmt.Fprintf(&sb, "  goodness of fit: KS=%.3f (5%% critical %.3f)\n", r.KS, r.KSCritical)
	return sb.String()
}
