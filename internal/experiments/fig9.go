package experiments

import (
	"sort"

	"datanet/internal/metrics"
)

// Fig9 reproduces paper Figure 9: per-sub-dataset accuracy of the Eq.-6
// size estimate, on movies sampled evenly across the size spectrum. Large
// (dominant) sub-datasets are recorded exactly in hash maps, so their
// estimates track the truth; sub-datasets below ~half a block's scale live
// mostly in Bloom filters and deviate more — which is harmless, because
// small sub-datasets cannot cause imbalance.
func Fig9(env *Env, samples int) (*Report, error) {
	if samples <= 0 {
		samples = 50
	}
	type pair struct {
		sub string
		sz  int64
	}
	all := make([]pair, 0, len(env.Truth))
	for sub, sz := range env.Truth {
		all = append(all, pair{sub, sz})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].sz != all[j].sz {
			return all[i].sz < all[j].sz
		}
		return all[i].sub < all[j].sub
	})
	if samples > len(all) {
		samples = len(all)
	}
	// The mean relative error is taken above and below the paper's Fig. 9
	// dominance scale, ~32 MB on 64 MB blocks, i.e. half a block.
	halfBlock := float64(env.FS.Config().BlockSize) / 2
	var actual, estimated []float64
	var largeSum, smallSum float64
	var largeN, smallN int
	for k := 0; k < samples; k++ {
		p := all[k*(len(all)-1)/max(samples-1, 1)]
		est, rel := env.Array.SubAccuracy(p.sub, p.sz)
		actual = append(actual, env.paperMB(float64(p.sz)))
		estimated = append(estimated, env.paperMB(float64(est)))
		if float64(p.sz) >= halfBlock {
			largeSum += rel
			largeN++
		} else {
			smallSum += rel
			smallN++
		}
	}
	var largeErr, smallErr float64
	if largeN > 0 {
		largeErr = largeSum / float64(largeN)
	}
	if smallN > 0 {
		smallErr = smallSum / float64(smallN)
	}

	r := newReport()
	r.linef("Figure 9 — ElasticMap accuracy per sub-dataset (%s)", env.describe())
	fig := &metrics.Figure{Caption: "movies sorted by size: actual vs estimated (MB at 64MB scale)"}
	fig.AddY("actual", actual)
	fig.AddY("estimated (Eq. 6)", estimated)
	r.figure("_accuracy", lineFigure, fig)
	r.linef("  mean relative error: large sub-datasets %.1f%%, small sub-datasets %.1f%% (paper: small ones deviate, large ones track)",
		100*largeErr, 100*smallErr)
	r.Values["large/rel_err"] = largeErr
	r.Values["small/rel_err"] = smallErr
	return r, nil
}
