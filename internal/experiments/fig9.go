package experiments

import (
	"fmt"
	"sort"
	"strings"

	"datanet/internal/metrics"
)

// Fig9Result reproduces paper Figure 9: per-sub-dataset accuracy of the
// Eq.-6 size estimate. Large (dominant) sub-datasets are recorded exactly
// in hash maps, so their estimates track the truth; sub-datasets below
// ~half a block's scale live mostly in Bloom filters and deviate more —
// which is harmless, because small sub-datasets cannot cause imbalance.
type Fig9Result struct {
	Env *Env
	// Points are sampled movies sorted by actual size ascending.
	Points []Fig9Point
	// LargeRelErr / SmallRelErr average the relative error above/below the
	// dominance scale (the figure's visual takeaway).
	LargeRelErr, SmallRelErr float64
}

// Fig9Point is one movie's actual vs estimated size (MB at 64MB scale).
type Fig9Point struct {
	Sub         string
	ActualMB    float64
	EstimateMB  float64
	RelativeErr float64
}

// Fig9 samples movies across the size spectrum.
func Fig9(env *Env, samples int) (*Fig9Result, error) {
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
	// Evenly sample the sorted size spectrum.
	if samples > len(all) {
		samples = len(all)
	}
	blockScale := float64(64<<20) / float64(env.FS.Config().BlockSize)
	res := &Fig9Result{Env: env}
	var largeSum, smallSum float64
	var largeN, smallN int
	// The paper's Fig. 9 dominance scale is ~32 MB on 64 MB blocks, i.e.
	// half a block.
	halfBlock := float64(env.FS.Config().BlockSize) / 2
	for k := 0; k < samples; k++ {
		idx := k * (len(all) - 1) / max(samples-1, 1)
		p := all[idx]
		est, rel := env.Array.SubAccuracy(p.sub, p.sz)
		pt := Fig9Point{
			Sub:         p.sub,
			ActualMB:    float64(p.sz) * blockScale / (1 << 20),
			EstimateMB:  float64(est) * blockScale / (1 << 20),
			RelativeErr: rel,
		}
		res.Points = append(res.Points, pt)
		if float64(p.sz) >= halfBlock {
			largeSum += rel
			largeN++
		} else {
			smallSum += rel
			smallN++
		}
	}
	if largeN > 0 {
		res.LargeRelErr = largeSum / float64(largeN)
	}
	if smallN > 0 {
		res.SmallRelErr = smallSum / float64(smallN)
	}
	return res, nil
}

// String renders Figure 9.
func (r *Fig9Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9 — ElasticMap accuracy per sub-dataset (%s)\n", r.Env.describe())
	actual := make([]float64, len(r.Points))
	est := make([]float64, len(r.Points))
	for i, p := range r.Points {
		actual[i] = p.ActualMB
		est[i] = p.EstimateMB
	}
	fig := metrics.Figure{Caption: "movies sorted by size: actual vs estimated (MB at 64MB scale)"}
	fig.AddY("actual", actual)
	fig.AddY("estimated (Eq. 6)", est)
	sb.WriteString(fig.String())
	fmt.Fprintf(&sb, "  mean relative error: large sub-datasets %.1f%%, small sub-datasets %.1f%% (paper: small ones deviate, large ones track)\n",
		100*r.LargeRelErr, 100*r.SmallRelErr)
	return sb.String()
}
