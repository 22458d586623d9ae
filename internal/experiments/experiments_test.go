package experiments

import (
	"bytes"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"datanet/internal/elasticmap"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/metrics"
	"datanet/internal/placement"
	"datanet/internal/stats"
)

// smallMovie keeps experiment tests fast while preserving the shapes.
func smallMovie() MovieParams {
	return MovieParams{
		Nodes:      8,
		Racks:      2,
		Blocks:     48,
		BlockBytes: 64 << 10,
		Movies:     300,
		Alpha:      0.3,
		Seed:       42,
	}
}

func smallEvent() EventParams {
	return EventParams{
		Nodes:      8,
		Racks:      2,
		Blocks:     32,
		BlockBytes: 64 << 10,
		Alpha:      0.3,
		Seed:       7,
	}
}

func smallEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewMovieEnv(smallMovie())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// ran unwraps an experiment's result and checks its rendering carries the
// caption.
func ran(t *testing.T, caption string) func(*Report, error) *Report {
	t.Helper()
	return func(r *Report, err error) *Report {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(r.String(), caption) {
			t.Errorf("String() missing caption %q", caption)
		}
		return r
	}
}

// val reads a named outcome that must exist.
func val(t *testing.T, r *Report, key string) float64 {
	t.Helper()
	v, ok := r.Values[key]
	if !ok {
		t.Fatalf("report has no value %q (has %v)", key, keys(r))
	}
	return v
}

func keys(r *Report) []string {
	out := make([]string, 0, len(r.Values))
	for k := range r.Values {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// cells lists the keys of the cells that carry the given counter, without
// the counter: cells(r, "/slowdown") → ["datanet/0@0.50", …].
func cells(r *Report, counter string) []string {
	var out []string
	for _, k := range keys(r) {
		if cell, ok := strings.CutSuffix(k, counter); ok {
			out = append(out, cell)
		}
	}
	return out
}

func tablesOf(r *Report) []*metrics.Table {
	var out []*metrics.Table
	for _, b := range r.blocks {
		if b.table != nil {
			out = append(out, b.table)
		}
	}
	return out
}

func figuresOf(r *Report) []*metrics.Figure {
	var out []*metrics.Figure
	for _, b := range r.blocks {
		if b.figure != nil {
			out = append(out, b.figure)
		}
	}
	return out
}

// wantRows checks the report's first table has n rows.
func wantRows(t *testing.T, r *Report, n int) {
	t.Helper()
	if got := len(tablesOf(r)[0].Rows); got != n {
		t.Fatalf("rows = %d, want %d", got, n)
	}
}

func TestNewMovieEnvShape(t *testing.T) {
	env := smallEnv(t)
	info, err := env.FS.Stat(env.File)
	if err != nil {
		t.Fatal(err)
	}
	// Block count lands near the target.
	if n := len(info.Blocks); n < 40 || n > 56 {
		t.Errorf("blocks = %d, want ≈48", n)
	}
	if env.Array.Len() != len(info.Blocks) {
		t.Errorf("array len %d != blocks %d", env.Array.Len(), len(info.Blocks))
	}
	var total int64
	for _, b := range env.BlockTruth {
		total += b
	}
	if total != env.Truth[env.Target] {
		t.Errorf("BlockTruth sum %d != Truth %d", total, env.Truth[env.Target])
	}
}

// Environments over one log at one block size share one scan of each block
// and one ground truth, whatever their cluster, placement, replication and
// α: the scans are made once per (log, block size), not once per
// environment. Checked by identity, not by clock. Each environment's array
// still encodes to the bytes a fresh build over its blocks gives.
func TestEnvsShareTheLogsBlockScans(t *testing.T) {
	p := smallMovie()
	a := smallEnv(t)
	q := p
	q.Nodes, q.Racks = 16, 4
	b, err := NewMovieEnv(q)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildEnv(movieLog(p), p.Nodes, p.Racks, hdfs.Config{
		BlockSize: p.BlockBytes, Replication: 1, Placement: placement.RackAware{}, Seed: 9,
	}, 0.5, gen.MovieID(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Env{b, c} {
		if len(e.Scans) != len(a.Scans) {
			t.Fatalf("%d scans, want the shared %d", len(e.Scans), len(a.Scans))
		}
		for i := range e.Scans {
			if e.Scans[i] != a.Scans[i] {
				t.Fatalf("block %d was scanned again", i)
			}
		}
		if reflect.ValueOf(e.Truth).UnsafePointer() != reflect.ValueOf(a.Truth).UnsafePointer() {
			t.Error("ground truth was summed again")
		}
		blocks, err := e.FS.BlockRecords(e.File)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := elasticmap.Encode(e.Array)
		want, _ := elasticmap.Encode(elasticmap.Build(blocks, e.Opts))
		if !bytes.Equal(got, want) {
			t.Errorf("α=%.2f: the array separated from shared scans differs from a fresh build", e.Opts.Alpha)
		}
	}
	d, err := buildEnv(movieLog(p), p.Nodes, p.Racks, hdfs.Config{BlockSize: 2 * p.BlockBytes, Seed: p.Seed}, p.Alpha, gen.MovieID(0))
	if err != nil {
		t.Fatal(err)
	}
	if d.Scans[0] == a.Scans[0] {
		t.Error("another block size reused the scans")
	}
}

func TestEstimatedWeightsTrackTruth(t *testing.T) {
	env := smallEnv(t)
	est := env.Array.Weights(env.Target)
	truth, err := env.FS.SubDistribution(env.File, env.Target)
	if err != nil {
		t.Fatal(err)
	}
	var estSum, truthSum int64
	for i := range est {
		estSum += est[i]
		truthSum += truth[i]
	}
	if truthSum == 0 {
		t.Fatal("target absent from dataset")
	}
	rel := float64(estSum-truthSum) / float64(truthSum)
	if rel < -0.2 || rel > 0.2 {
		t.Errorf("estimate off by %.1f%%", rel*100)
	}
}

// Content clustering — the top 30 blocks hold the majority — and locality
// scheduling leaves an imbalance: fig1's gate rows, on a small environment.
func TestFig1(t *testing.T) {
	p := smallMovie()
	r := ran(t, "Figure 1")(Fig1(p))
	figs := figuresOf(r)
	if len(figs[0].Series[0].Y) == 0 || len(figs[1].Series[0].Y) != p.Nodes {
		t.Fatalf("series sizes: %d blocks, %d nodes", len(figs[0].Series[0].Y), len(figs[1].Series[0].Y))
	}
	holdGates(t, "fig1", r)
}

func TestFig2(t *testing.T) {
	r := Fig2(stats.Gamma{}, 0, nil)
	aboveDouble := figuresOf(r)[0].Series[2]
	if aboveDouble.Name != "P(Z > 2 E)" || len(aboveDouble.Y) == 0 || len(aboveDouble.Y) != len(aboveDouble.X) {
		t.Fatalf("series %q has %d points over %d sizes", aboveDouble.Name, len(aboveDouble.Y), len(aboveDouble.X))
	}
	// Monotone growth with cluster size (paper's core claim).
	for i := 1; i < len(aboveDouble.Y); i++ {
		if aboveDouble.Y[i] < aboveDouble.Y[i-1]-1e-12 {
			t.Fatalf("P(Z>2E) not monotone at %d", i)
		}
	}
	// The paper's quoted expectation at m=128 is fig2's gate rows.
	holdGates(t, "fig2", r)
	if !strings.Contains(r.String(), "Figure 2") {
		t.Error("String() missing caption")
	}
}

func TestTable1(t *testing.T) {
	r := ran(t, "Table I")(Table1(smallEnv(t)))
	rows := tablesOf(r)[0].Rows
	if len(rows) == 0 {
		t.Fatal("no entries")
	}
	prev := int(^uint(0) >> 1)
	for _, row := range rows {
		reviews, err := strconv.Atoi(row[1])
		if err != nil || reviews > prev {
			t.Fatalf("entries not sorted by reviews desc: %v", rows)
		}
		prev = reviews
	}
}

// DataNet wins on the compute-heavy app, and by more than on the light one
// — the paper's Fig. 5(a) ordering, fig5's gate rows.
func TestFig5CoreClaims(t *testing.T) {
	r := ran(t, "Figure 5")(Fig5(smallEnv(t)))
	wantRows(t, r, 4)
	holdGates(t, "fig5", r)
}

func TestFig6GapOrdering(t *testing.T) {
	env := smallEnv(t)
	r := ran(t, "Figure 6")(Fig6(env))
	holdGates(t, "fig6", r)
	if n := len(figuresOf(r)[0].Series[0].Y); n != env.Topo.N() {
		t.Errorf("TopK series length %d", n)
	}
}

func TestFig7ShuffleSpeedup(t *testing.T) {
	r := ran(t, "Figure 7")(Fig7(smallEnv(t)))
	wantRows(t, r, 4)
	holdGates(t, "fig7", r)
}

func TestFig8(t *testing.T) {
	r := ran(t, "Figure 8")(Fig8(smallEvent()))
	if len(figuresOf(r)[0].Series[0].Y) == 0 {
		t.Fatal("no block series")
	}
	holdGates(t, "fig8", r)
}

func TestTable2Trends(t *testing.T) {
	r := ran(t, "Table II")(Table2(smallEnv(t), nil))
	wantRows(t, r, len(PaperAlphas))
	holdGates(t, "table2", r)
	for i, a := range PaperAlphas {
		key := strconv.FormatFloat(a, 'f', 2, 64)
		accuracy, ratio := val(t, r, key+"/accuracy"), val(t, r, key+"/ratio")
		if accuracy < 0.5 || accuracy > 1 {
			t.Errorf("accuracy %g out of plausible range", accuracy)
		}
		if val(t, r, key+"/meta_bytes") <= 0 {
			t.Errorf("meta bytes = %g", val(t, r, key+"/meta_bytes"))
		}
		if i == 0 {
			continue
		}
		// α decreases down the table: accuracy must not rise, ratio must
		// not fall (allowing small noise from bucket granularity).
		prev := strconv.FormatFloat(PaperAlphas[i-1], 'f', 2, 64)
		if accuracy > val(t, r, prev+"/accuracy")+0.02 {
			t.Errorf("accuracy rose as α fell: row %d", i)
		}
		if ratio < val(t, r, prev+"/ratio")*0.95 {
			t.Errorf("ratio fell as α fell: row %d", i)
		}
	}
}

func TestFig9AccuracyBySize(t *testing.T) {
	r := ran(t, "Figure 9")(Fig9(smallEnv(t), 30))
	actual := figuresOf(r)[0].Series[0].Y
	if len(actual) == 0 {
		t.Fatal("no points")
	}
	if !sort.Float64sAreSorted(actual) {
		t.Fatal("points not sorted by actual size")
	}
	holdGates(t, "fig9", r)
}

func TestFig10BalanceStableAcrossAlpha(t *testing.T) {
	r := ran(t, "Figure 10")(Fig10(smallEnv(t), []float64{0.15, 0.5, 1.0}))
	wantRows(t, r, 3)
	for _, a := range []string{"0.15", "0.50", "1.00"} {
		if mx := val(t, r, a+"/max_over_avg"); mx < 1 || mx > 2 {
			t.Errorf("α=%s max/avg = %.2f implausible", a, mx)
		}
		if mn := val(t, r, a+"/min_over_avg"); mn > 1 || mn < 0.3 {
			t.Errorf("α=%s min/avg = %.2f implausible", a, mn)
		}
	}
	// Paper: raising α beyond ~15% barely changes the balance.
	lo, hi := val(t, r, "0.15/max_over_avg"), val(t, r, "1.00/max_over_avg")
	if d := hi - lo; d > 0.25 || d < -0.25 {
		t.Errorf("balance swings with α: %.2f → %.2f", lo, hi)
	}
	holdGates(t, "fig10", r)
}

func TestMigrationComparison(t *testing.T) {
	holdGates(t, "migration", ran(t, "rebalancing")(Migration(smallEnv(t))))
}

func TestBucketAblation(t *testing.T) {
	r := ran(t, "Ablation")(BucketAblation(smallEnv(t)))
	wantRows(t, r, 4)
	for _, shape := range cells(r, "/accuracy") {
		if val(t, r, shape+"/accuracy") <= 0 || val(t, r, shape+"/ratio") <= 0 {
			t.Errorf("%s: degenerate row %v", shape, r.Values)
		}
	}
}

func TestSchedulerAblation(t *testing.T) {
	r := ran(t, "Ablation")(SchedulerAblation(smallEnv(t)))
	wantRows(t, r, 7)
	holdGates(t, "scheduler-ablation", r)
}
