package experiments

import (
	"fmt"

	"datanet/internal/elasticmap"
	"datanet/internal/metrics"
)

// PaperAlphas are Table II's α column.
var PaperAlphas = []float64{0.51, 0.40, 0.31, 0.25, 0.21}

// Table2 reproduces paper Table II: ElasticMap memory efficiency and
// accuracy as α (the hash-map share) varies over the movie environment,
// with the paper's values alongside:
//
//	α=51% → χ=97%, ratio 1857    α=40% → 93%, 2270    α=31% → 88%, 2751
//	α=25% → 83%, 3196            α=21% → 80%, 3497
//
// The ratio is raw-data bytes represented per meta-data byte.
func Table2(env *Env, alphas []float64) (*Report, error) {
	if len(alphas) == 0 {
		alphas = PaperAlphas
	}
	allSubs := make([]string, 0, len(env.Truth))
	for sub := range env.Truth {
		allSubs = append(allSubs, sub)
	}
	paper := map[float64][2]string{
		0.51: {"97%", "1857"}, 0.40: {"93%", "2270"}, 0.31: {"88%", "2751"},
		0.25: {"83%", "3196"}, 0.21: {"80%", "3497"},
	}
	r := newReport()
	t := metrics.NewTable("Table II — ElasticMap efficiency",
		"α (target)", "α (realized)", "accuracy χ", "repr. ratio", "meta-data", "paper χ", "paper ratio")
	for _, a := range alphas {
		opts := env.Opts
		opts.Alpha = a
		arr := elasticmap.FromScans(env.Scans, opts)
		accuracy, ratio, metaBytes := arr.OverallAccuracy(allSubs), arr.RepresentationRatio(), arr.MemoryBits()/8
		t.Add(metrics.Pct(a), metrics.Pct(arr.MeanAlpha()), metrics.Pct(accuracy),
			fmt.Sprintf("%.0f", ratio), metrics.Bytes(metaBytes), paper[a][0], paper[a][1])
		key := fmt.Sprintf("%.2f", a)
		r.Values[key+"/accuracy"] = accuracy
		r.Values[key+"/ratio"] = ratio
		r.Values[key+"/meta_bytes"] = float64(metaBytes)
	}
	r.table(t)
	r.linef("  (ratio trend: smaller hash share → higher compression, lower accuracy — Bloom entries only witness existence)")
	return r, nil
}
