package experiments

import (
	"fmt"
	"math"

	"datanet/internal/elasticmap"
	"datanet/internal/gen"
	"datanet/internal/metrics"
)

// ModelCheck validates the paper's Eq.-5 memory model against the
// implementation on env's blocks — predicted vs actual footprint at each
// α, the relative error being |actual − model| / model — and measures the
// representation ratio on a genuine 64 MiB block (the paper's block size)
// so Table II's ratio column can be compared at like-for-like scale.
func ModelCheck(env *Env, alphas []float64) (*Report, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.1, 0.3, 0.5, 0.8, 1.0}
	}
	r := newReport()
	t := metrics.NewTable("Extension — Eq. 5 memory model vs implementation",
		"α target", "α realized", "model (KiB)", "actual (KiB)", "rel. err")
	for _, a := range alphas {
		opts := env.Opts
		opts.Alpha = a
		arr := elasticmap.FromScans(env.Scans, opts)
		var model float64
		for i := 0; i < arr.Len(); i++ {
			m := arr.Block(i)
			model += opts.CostBits(m.NumSubs(), m.HashedAlpha())
		}
		actual := arr.MemoryBits()
		rel := 0.0
		if model > 0 {
			rel = math.Abs(float64(actual)-model) / model
		}
		t.Add(metrics.Pct(a), metrics.Pct(arr.MeanAlpha()),
			fmt.Sprintf("%.1f", model/8192), fmt.Sprintf("%.1f", float64(actual)/8192), metrics.Pct(rel))
		key := fmt.Sprintf("%.2f", a)
		r.Values[key+"/actual_bits"] = float64(actual)
		r.Values[key+"/rel_err"] = rel
	}
	r.table(t)

	// One genuine 64 MiB block: ~220k movie reviews in a single block.
	const paperBlock = 64 << 20
	recs := movieData(gen.MovieConfig{
		Movies:   20000, // a big catalogue so the block holds many subs
		Reviews:  paperBlock / meanMovieRecordBytes,
		SpanDays: 7, // one block covers a short window of the log
		Seed:     99,
	}).recs
	bounds := elasticmap.FibonacciBounds(paperBlock)
	scan := elasticmap.ScanBlock(recs, bounds)
	arr := elasticmap.FromScans([]*elasticmap.BlockScan{scan}, elasticmap.Options{Alpha: elasticmap.DefaultAlpha, BucketBounds: bounds})
	subs := make([]string, 0, len(scan.Sizes()))
	for sub := range scan.Sizes() {
		subs = append(subs, sub)
	}
	ratio, chi := arr.RepresentationRatio(), arr.OverallAccuracy(subs)
	r.linef("  paper-scale check: one genuine 64 MiB block with %d sub-datasets → %s meta-data, raw/meta ratio %.0f (paper Table II: 1857–3497), χ=%s",
		arr.Block(0).NumSubs(), metrics.Bytes(arr.MemoryBits()/8), ratio, metrics.Pct(chi))
	r.Values["paper_scale/ratio"] = ratio
	r.Values["paper_scale/chi"] = chi
	return r, nil
}
