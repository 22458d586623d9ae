package experiments

import (
	"fmt"
	"strings"

	"datanet/internal/elasticmap"
	"datanet/internal/metrics"
)

// Table2Result reproduces paper Table II: ElasticMap memory efficiency and
// accuracy as α (the hash-map share) varies. The paper's values:
//
//	α=51% → χ=97%, ratio 1857    α=40% → 93%, 2270    α=31% → 88%, 2751
//	α=25% → 83%, 3196            α=21% → 80%, 3497
type Table2Result struct {
	Env  *Env
	Rows []Table2Row
}

// Table2Row is one α setting's outcome.
type Table2Row struct {
	TargetAlpha   float64
	RealizedAlpha float64
	Accuracy      float64
	// Ratio is raw-data bytes represented per meta-data byte.
	Ratio float64
	// MetaBytes is the absolute meta-data footprint.
	MetaBytes int64
}

// PaperAlphas are Table II's α column.
var PaperAlphas = []float64{0.51, 0.40, 0.31, 0.25, 0.21}

// Table2 sweeps α over the movie environment.
func Table2(env *Env, alphas []float64) (*Table2Result, error) {
	if len(alphas) == 0 {
		alphas = PaperAlphas
	}
	perBlock, err := env.FS.BlockRecords(env.File)
	if err != nil {
		return nil, err
	}
	allSubs := make([]string, 0, len(env.Truth))
	for sub := range env.Truth {
		allSubs = append(allSubs, sub)
	}
	res := &Table2Result{Env: env}
	for _, a := range alphas {
		opts := env.Opts
		opts.Alpha = a
		arr := elasticmap.Build(perBlock, opts)
		res.Rows = append(res.Rows, Table2Row{
			TargetAlpha:   a,
			RealizedAlpha: arr.MeanAlpha(),
			Accuracy:      arr.OverallAccuracy(allSubs),
			Ratio:         arr.RepresentationRatio(),
			MetaBytes:     arr.MemoryBits() / 8,
		})
	}
	return res, nil
}

// String renders the table with the paper's values alongside.
func (r *Table2Result) String() string {
	paper := map[float64][2]string{
		0.51: {"97%", "1857"}, 0.40: {"93%", "2270"}, 0.31: {"88%", "2751"},
		0.25: {"83%", "3196"}, 0.21: {"80%", "3497"},
	}
	t := metrics.NewTable("Table II — ElasticMap efficiency",
		"α (target)", "α (realized)", "accuracy χ", "repr. ratio", "meta-data", "paper χ", "paper ratio")
	for _, row := range r.Rows {
		p := paper[row.TargetAlpha]
		t.Add(metrics.Pct(row.TargetAlpha), metrics.Pct(row.RealizedAlpha), metrics.Pct(row.Accuracy),
			fmt.Sprintf("%.0f", row.Ratio), metrics.Bytes(row.MetaBytes), p[0], p[1])
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("  (ratio trend: smaller hash share → higher compression, lower accuracy — Bloom entries only witness existence)\n")
	return sb.String()
}
