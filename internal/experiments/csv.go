package experiments

import (
	"os"
	"path/filepath"

	"datanet/internal/metrics"
	"datanet/internal/stats"
)

// CSV rendering for the series-bearing figures, so the results can be
// re-plotted with any tool. WriteCSVSuite regenerates the figure
// experiments and writes one file per figure into dir.

// CSV renders Figure 1's two series.
func (r *Fig1Result) CSV() (blocks, nodes string) {
	var fb metrics.Figure
	fb.AddY("block_mb", r.BlockMB)
	var fn metrics.Figure
	fn.AddY("node_mb", r.NodeMB)
	return fb.CSV(), fn.CSV()
}

// CSV renders Figure 2's probability curves.
func (r *Fig2Result) CSV() string {
	x := make([]float64, len(r.Sizes))
	for i, m := range r.Sizes {
		x[i] = float64(m)
	}
	var f metrics.Figure
	f.Add("p_below_third", x, r.BelowThird)
	f.Add("p_below_half", x, r.BelowHalf)
	f.Add("p_above_double", x, r.AboveDouble)
	f.Add("p_above_triple", x, r.AboveTriple)
	return f.CSV()
}

// CSV renders Figure 5(c)'s per-node workloads.
func (r *Fig5Result) CSV() string {
	var f metrics.Figure
	f.AddY("without_datanet_mb", r.NodeWithout)
	f.AddY("with_datanet_mb", r.NodeWith)
	return f.CSV()
}

// CSV renders Figure 6(a)'s per-node map times.
func (r *Fig6Result) CSV() string {
	var f metrics.Figure
	f.AddY("topk_without_s", r.TopKWithout)
	f.AddY("topk_with_s", r.TopKWith)
	return f.CSV()
}

// CSV renders Figure 8's block and node series.
func (r *Fig8Result) CSV() string {
	var f metrics.Figure
	f.AddY("issueevent_block_mb", r.BlockMB)
	return f.CSV()
}

// CSV renders Figure 9's actual-vs-estimated points.
func (r *Fig9Result) CSV() string {
	actual := make([]float64, len(r.Points))
	est := make([]float64, len(r.Points))
	for i, p := range r.Points {
		actual[i] = p.ActualMB
		est[i] = p.EstimateMB
	}
	var f metrics.Figure
	f.AddY("actual_mb", actual)
	f.AddY("estimated_mb", est)
	return f.CSV()
}

// CSV renders Figure 10's balance curves over α.
func (r *Fig10Result) CSV() string {
	x := make([]float64, len(r.Rows))
	max := make([]float64, len(r.Rows))
	min := make([]float64, len(r.Rows))
	std := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		x[i] = row.Alpha
		max[i] = row.NormMax
		min[i] = row.NormMin
		std[i] = row.Std
	}
	var f metrics.Figure
	f.Add("max_over_avg", x, max)
	f.Add("min_over_avg", x, min)
	f.Add("std_over_avg", x, std)
	return f.CSV()
}

// WriteCSVSuite regenerates the figure experiments and writes their series
// as CSV files under dir (created if missing). It returns the file list.
func WriteCSVSuite(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	put := func(name, content string) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}

	f1p := DefaultMovieParams()
	f1p.Blocks = 128
	r1, err := Fig1(f1p)
	if err != nil {
		return written, err
	}
	b, n := r1.CSV()
	if err := put("fig1a_blocks.csv", b); err != nil {
		return written, err
	}
	if err := put("fig1b_nodes.csv", n); err != nil {
		return written, err
	}

	if err := put("fig2_probabilities.csv", Fig2(stats.Gamma{}, 0, nil).CSV()); err != nil {
		return written, err
	}

	env, err := NewMovieEnv(DefaultMovieParams())
	if err != nil {
		return written, err
	}
	r5, err := Fig5(env)
	if err != nil {
		return written, err
	}
	if err := put("fig5c_workloads.csv", r5.CSV()); err != nil {
		return written, err
	}
	r6, err := Fig6(env)
	if err != nil {
		return written, err
	}
	if err := put("fig6a_maptimes.csv", r6.CSV()); err != nil {
		return written, err
	}
	r8, err := Fig8(EventParams{})
	if err != nil {
		return written, err
	}
	if err := put("fig8a_blocks.csv", r8.CSV()); err != nil {
		return written, err
	}
	r9, err := Fig9(env, 50)
	if err != nil {
		return written, err
	}
	if err := put("fig9_accuracy.csv", r9.CSV()); err != nil {
		return written, err
	}
	r10, err := Fig10(env, nil)
	if err != nil {
		return written, err
	}
	if err := put("fig10_balance.csv", r10.CSV()); err != nil {
		return written, err
	}
	return written, nil
}
