package experiments

import (
	"datanet/internal/metrics"
	"datanet/internal/stats"
)

// Fig2 reproduces paper Figure 2: the probability of extreme per-node
// workloads as the cluster grows, under the §II-B model Z ~ Γ(nk/m, θ) —
// plus the inset Γ density and the §II-B expected-node counts quoted for a
// 128-node cluster. Zero-value arguments use the paper's parameters
// (k=1.2, θ=7, n=512, cluster sizes 2..448).
func Fig2(block stats.Gamma, nBlocks int, sizes []int) *Report {
	if !block.Valid() {
		block = stats.Gamma{K: 1.2, Theta: 7}
	}
	if nBlocks <= 0 {
		nBlocks = 512
	}
	if len(sizes) == 0 {
		for m := 2; m <= 448; m += 2 {
			sizes = append(sizes, m)
		}
	}
	r := newReport()
	r.linef("Figure 2 — imbalance probability vs cluster size (X ~ Γ(k=%.1f, θ=%.0f), n=%d blocks)",
		block.K, block.Theta, nBlocks)

	x := make([]float64, len(sizes))
	curves := make([][]float64, 4)
	for i, m := range sizes {
		x[i] = float64(m)
		p := stats.Imbalance(block, nBlocks, m)
		for c, v := range []float64{p.BelowThird, p.BelowHalf, p.AboveDouble, p.AboveTriple} {
			curves[c] = append(curves[c], v)
		}
	}
	fig := &metrics.Figure{}
	for c, name := range []string{"P(Z < 1/3 E)", "P(Z < 1/2 E)", "P(Z > 2 E)", "P(Z > 3 E)"} {
		fig.Add(name, x, curves[c])
	}
	r.figure("_probabilities", lineFigure, fig)

	var densityX, densityY []float64
	for v := 0.0; v <= 30; v += 0.5 {
		densityX = append(densityX, v)
		densityY = append(densityY, block.PDF(v))
	}
	inset := &metrics.Figure{Caption: "  inset: Gamma density Γ(k, θ)"}
	inset.Add("pdf", densityX, densityY)
	r.figure("_density", lineFigure, inset)

	// The expected extreme-node counts the paper quotes at m=128.
	p128 := stats.Imbalance(block, nBlocks, 128)
	r.Values["at128/below_half"] = 128 * p128.BelowHalf
	r.Values["at128/below_third"] = 128 * p128.BelowThird
	r.Values["at128/above_double"] = 128 * p128.AboveDouble
	r.linef("  at m=128: E[#nodes<E/2]=%.1f (paper 3.9), E[#nodes<E/3]=%.1f (paper 1.5), E[#nodes>2E]=%.1f (paper 4.0)",
		128*p128.BelowHalf, 128*p128.BelowThird, 128*p128.AboveDouble)
	return r
}
