package experiments

import (
	"fmt"
	"strings"

	"datanet/internal/elasticmap"
	"datanet/internal/gen"
	"datanet/internal/metrics"
	"datanet/internal/records"
)

// ModelCheckRow compares Eq. 5's predicted memory with the implementation's
// actual footprint at one α.
type ModelCheckRow struct {
	Alpha         float64
	RealizedAlpha float64
	ModelBits     float64
	ActualBits    int64
	// RelErr is |actual − model| / model.
	RelErr float64
}

// ModelCheckResult validates the paper's Eq.-5 memory model against the
// implementation, and measures the representation ratio on a genuine
// 64 MiB block (the paper's block size) so Table II's ratio column can be
// compared at like-for-like scale.
type ModelCheckResult struct {
	Rows []ModelCheckRow
	// PaperScale reports one full-size 64 MiB block built from the movie
	// generator: sub-dataset count, meta bytes and the raw/meta ratio.
	PaperScaleSubs  int
	PaperScaleMeta  int64
	PaperScaleRatio float64
	PaperScaleChi   float64
}

// ModelCheck runs the validation on env's blocks plus one synthetic
// paper-scale block.
func ModelCheck(env *Env, alphas []float64) (*ModelCheckResult, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.1, 0.3, 0.5, 0.8, 1.0}
	}
	perBlock, err := env.FS.BlockRecords(env.File)
	if err != nil {
		return nil, err
	}
	res := &ModelCheckResult{}
	for _, a := range alphas {
		opts := env.Opts
		opts.Alpha = a
		arr := elasticmap.Build(perBlock, opts)
		var model float64
		for i := 0; i < arr.Len(); i++ {
			m := arr.Block(i)
			model += opts.CostBits(m.NumSubs(), m.HashedAlpha())
		}
		actual := arr.MemoryBits()
		rel := 0.0
		if model > 0 {
			rel = float64(actual) - model
			if rel < 0 {
				rel = -rel
			}
			rel /= model
		}
		res.Rows = append(res.Rows, ModelCheckRow{
			Alpha:         a,
			RealizedAlpha: arr.MeanAlpha(),
			ModelBits:     model,
			ActualBits:    actual,
			RelErr:        rel,
		})
	}

	// One genuine 64 MiB block: ~220k movie reviews in a single block.
	const paperBlock = 64 << 20
	recs := movieRecords(gen.MovieConfig{
		Movies:   20000, // a big catalogue so the block holds many subs
		Reviews:  paperBlock / meanMovieRecordBytes,
		SpanDays: 7, // one block covers a short window of the log
		Seed:     99,
	})
	opts := elasticmap.Options{Alpha: elasticmap.DefaultAlpha,
		BucketBounds: elasticmap.FibonacciBounds(paperBlock)}
	arr := elasticmap.Build([][]records.Record{recs}, opts)
	res.PaperScaleSubs = arr.Block(0).NumSubs()
	res.PaperScaleMeta = arr.MemoryBits() / 8
	res.PaperScaleRatio = arr.RepresentationRatio()
	subs := make([]string, 0)
	for sub := range records.BySub(recs) {
		subs = append(subs, sub)
	}
	res.PaperScaleChi = arr.OverallAccuracy(subs)
	return res, nil
}

// String renders the validation.
func (r *ModelCheckResult) String() string {
	t := metrics.NewTable("Extension — Eq. 5 memory model vs implementation",
		"α target", "α realized", "model (KiB)", "actual (KiB)", "rel. err")
	for _, row := range r.Rows {
		t.Add(metrics.Pct(row.Alpha), metrics.Pct(row.RealizedAlpha),
			fmt.Sprintf("%.1f", row.ModelBits/8192), fmt.Sprintf("%.1f", float64(row.ActualBits)/8192),
			metrics.Pct(row.RelErr))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "  paper-scale check: one genuine 64 MiB block with %d sub-datasets → %s meta-data, raw/meta ratio %.0f (paper Table II: 1857–3497), χ=%s\n",
		r.PaperScaleSubs, metrics.Bytes(r.PaperScaleMeta), r.PaperScaleRatio, metrics.Pct(r.PaperScaleChi))
	return sb.String()
}
