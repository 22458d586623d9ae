package experiments

import (
	"strings"
	"testing"

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

func TestEstimatedWeightsTrackTruth(t *testing.T) {
	env := smallEnv(t)
	est := env.EstimatedWeights(env.Target)
	truth, err := env.TruthWeights(env.Target)
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

func TestFig1(t *testing.T) {
	p := smallMovie()
	r, err := Fig1(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BlockMB) == 0 || len(r.NodeMB) != p.Nodes {
		t.Fatalf("series sizes: %d blocks, %d nodes", len(r.BlockMB), len(r.NodeMB))
	}
	// Content clustering: the top 30 blocks hold the majority.
	if r.Top30Share < 0.5 {
		t.Errorf("Top30Share = %g, expected clustering", r.Top30Share)
	}
	// Locality scheduling leaves an imbalance.
	if r.NodeSummary.ImbalanceRatio() < 1.1 {
		t.Errorf("baseline imbalance = %.2f, expected > 1.1", r.NodeSummary.ImbalanceRatio())
	}
	if !strings.Contains(r.String(), "Figure 1") {
		t.Error("String() missing caption")
	}
}

func TestFig2(t *testing.T) {
	r := Fig2(stats.Gamma{}, 0, nil)
	if len(r.Sizes) == 0 || len(r.AboveDouble) != len(r.Sizes) {
		t.Fatal("empty series")
	}
	// Monotone growth with cluster size (paper's core claim).
	for i := 1; i < len(r.Sizes); i++ {
		if r.AboveDouble[i] < r.AboveDouble[i-1]-1e-12 {
			t.Fatalf("P(Z>2E) not monotone at %d", i)
		}
	}
	// The paper's quoted expectation at m=128.
	if r.At128AboveDouble < 3 || r.At128AboveDouble > 5 {
		t.Errorf("E[#nodes>2E] = %.2f, paper 4.0", r.At128AboveDouble)
	}
	if !strings.Contains(r.String(), "Figure 2") {
		t.Error("String() missing caption")
	}
}

func TestTable1(t *testing.T) {
	env := smallEnv(t)
	r, err := Table1(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) == 0 {
		t.Fatal("no entries")
	}
	for i := 1; i < len(r.Entries); i++ {
		if r.Entries[i].Reviews > r.Entries[i-1].Reviews {
			t.Fatal("entries not sorted by reviews desc")
		}
	}
	if !strings.Contains(r.String(), "Table I") {
		t.Error("String() missing caption")
	}
}

func TestFig5CoreClaims(t *testing.T) {
	env := smallEnv(t)
	r, err := Fig5(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Apps) != 4 {
		t.Fatalf("apps = %d", len(r.Apps))
	}
	topk := r.Comparison("TopKSearch")
	ma := r.Comparison("MovingAverage")
	if topk == nil || ma == nil {
		t.Fatal("missing comparisons")
	}
	// DataNet wins on the compute-heavy app, and by more than on the light
	// one — the paper's Fig. 5(a) ordering.
	if topk.Improvement <= 0 {
		t.Errorf("TopK improvement = %.1f%%, want positive", topk.Improvement*100)
	}
	if topk.Improvement <= ma.Improvement {
		t.Errorf("TopK improvement (%.1f%%) should exceed MovingAverage (%.1f%%)",
			topk.Improvement*100, ma.Improvement*100)
	}
	if r.Comparison("nope") != nil {
		t.Error("unknown app should return nil")
	}
	if !strings.Contains(r.String(), "Figure 5") {
		t.Error("String() missing caption")
	}
}

func TestFig6GapOrdering(t *testing.T) {
	env := smallEnv(t)
	r, err := Fig6(env)
	if err != nil {
		t.Fatal(err)
	}
	gap := func(app, variant string) float64 {
		for _, b := range r.Bars {
			if b.App == app && b.Variant == variant {
				return b.Max - b.Min
			}
		}
		t.Fatalf("bar %s/%s missing", app, variant)
		return 0
	}
	// Paper: the MovingAverage min–max gap is much smaller than WordCount's
	// (both without DataNet), and DataNet shrinks the TopK gap.
	if gap("MovingAverage", "without") >= gap("WordCount", "without") {
		t.Errorf("MA gap %.2f should undercut WC gap %.2f",
			gap("MovingAverage", "without"), gap("WordCount", "without"))
	}
	if gap("TopKSearch", "with") >= gap("TopKSearch", "without") {
		t.Errorf("DataNet did not shrink the TopK gap: %.2f vs %.2f",
			gap("TopKSearch", "with"), gap("TopKSearch", "without"))
	}
	if len(r.TopKWithout) != env.Topo.N() {
		t.Errorf("TopK series length %d", len(r.TopKWithout))
	}
	if !strings.Contains(r.String(), "Figure 6") {
		t.Error("String() missing caption")
	}
}

func TestFig7ShuffleSpeedup(t *testing.T) {
	env := smallEnv(t)
	r, err := Fig7(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Paper: shuffle with DataNet is substantially faster.
	if s := r.Speedup("TopKSearch"); s < 1.2 {
		t.Errorf("TopK shuffle speedup = %.2f, want > 1.2", s)
	}
	if s := r.Speedup("WordCount"); s < 1.1 {
		t.Errorf("WordCount shuffle speedup = %.2f, want > 1.1", s)
	}
	if r.Speedup("nope") != 0 {
		t.Error("unknown app speedup should be 0")
	}
	if !strings.Contains(r.String(), "Figure 7") {
		t.Error("String() missing caption")
	}
}

func TestFig8(t *testing.T) {
	r, err := Fig8(smallEvent())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BlockMB) == 0 {
		t.Fatal("no block series")
	}
	// The event data is NOT release-clustered: per-block CV well below the
	// movie data's.
	if r.ClusteringCV > 1.0 {
		t.Errorf("event CV = %.2f, expected smooth distribution", r.ClusteringCV)
	}
	// DataNet still shortens the longest map (paper: 125 s → 107 s).
	if r.LongestMapWith > r.LongestMapWithout*1.05 {
		t.Errorf("longest map grew: %.2f → %.2f", r.LongestMapWithout, r.LongestMapWith)
	}
	if !strings.Contains(r.String(), "Figure 8") {
		t.Error("String() missing caption")
	}
}

func TestTable2Trends(t *testing.T) {
	env := smallEnv(t)
	r, err := Table2(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(PaperAlphas) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		// α decreases down the table: accuracy must not rise, ratio must
		// not fall (allowing small noise from bucket granularity).
		if r.Rows[i].Accuracy > r.Rows[i-1].Accuracy+0.02 {
			t.Errorf("accuracy rose as α fell: row %d", i)
		}
		if r.Rows[i].Ratio < r.Rows[i-1].Ratio*0.95 {
			t.Errorf("ratio fell as α fell: row %d", i)
		}
	}
	for _, row := range r.Rows {
		if row.Accuracy < 0.5 || row.Accuracy > 1 {
			t.Errorf("accuracy %g out of plausible range", row.Accuracy)
		}
		if row.MetaBytes <= 0 {
			t.Errorf("meta bytes = %d", row.MetaBytes)
		}
	}
	if !strings.Contains(r.String(), "Table II") {
		t.Error("String() missing caption")
	}
}

func TestFig9AccuracyBySize(t *testing.T) {
	env := smallEnv(t)
	r, err := Fig9(env, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].ActualMB < r.Points[i-1].ActualMB {
			t.Fatal("points not sorted by actual size")
		}
	}
	// Paper: large sub-datasets are estimated accurately, small ones less so.
	if r.LargeRelErr > 0.1 {
		t.Errorf("large-sub error %.1f%% too high", r.LargeRelErr*100)
	}
	if r.LargeRelErr > r.SmallRelErr {
		t.Errorf("large error (%.3f) should undercut small error (%.3f)", r.LargeRelErr, r.SmallRelErr)
	}
	if !strings.Contains(r.String(), "Figure 9") {
		t.Error("String() missing caption")
	}
}

func TestFig10BalanceStableAcrossAlpha(t *testing.T) {
	env := smallEnv(t)
	r, err := Fig10(env, []float64{0.15, 0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.NormMax < 1 || row.NormMax > 2 {
			t.Errorf("α=%.2f max/avg = %.2f implausible", row.Alpha, row.NormMax)
		}
		if row.NormMin > 1 || row.NormMin < 0.3 {
			t.Errorf("α=%.2f min/avg = %.2f implausible", row.Alpha, row.NormMin)
		}
	}
	// Paper: raising α beyond ~15% barely changes the balance.
	if d := r.Rows[2].NormMax - r.Rows[0].NormMax; d > 0.25 || d < -0.25 {
		t.Errorf("balance swings with α: %.2f → %.2f", r.Rows[0].NormMax, r.Rows[2].NormMax)
	}
	if !strings.Contains(r.String(), "Figure 10") {
		t.Error("String() missing caption")
	}
}

func TestMigrationComparison(t *testing.T) {
	env := smallEnv(t)
	r, err := Migration(env)
	if err != nil {
		t.Fatal(err)
	}
	// The reactive approach must move a real fraction of the data; DataNet
	// leaves less residual imbalance.
	if r.Plan.Fraction() <= 0 {
		t.Error("baseline migration fraction should be positive")
	}
	if r.DataNetPlan.Fraction() >= r.Plan.Fraction() {
		t.Errorf("DataNet residual (%.1f%%) should undercut baseline (%.1f%%)",
			r.DataNetPlan.Fraction()*100, r.Plan.Fraction()*100)
	}
	if r.AggPlan.TotalBytes == 0 {
		t.Error("aggregation plan empty")
	}
	if !strings.Contains(r.String(), "rebalancing") {
		t.Error("String() missing caption")
	}
}

func TestBucketAblation(t *testing.T) {
	env := smallEnv(t)
	r, err := BucketAblation(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Accuracy <= 0 || row.Ratio <= 0 {
			t.Errorf("%s: degenerate row %+v", row.Shape, row)
		}
	}
	if !strings.Contains(r.String(), "Ablation") {
		t.Error("String() missing caption")
	}
}

func TestSchedulerAblation(t *testing.T) {
	env := smallEnv(t)
	r, err := SchedulerAblation(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var base, dn *SchedulerAblationRow
	for i := range r.Rows {
		switch r.Rows[i].Scheduler {
		case "hadoop-locality":
			base = &r.Rows[i]
		case "datanet":
			dn = &r.Rows[i]
		}
	}
	if base == nil || dn == nil {
		t.Fatal("missing baseline or datanet rows")
	}
	if dn.JobTime >= base.JobTime {
		t.Errorf("datanet job time %.2f not better than locality %.2f", dn.JobTime, base.JobTime)
	}
	if dn.MaxOverAvg >= base.MaxOverAvg {
		t.Errorf("datanet imbalance %.2f not better than locality %.2f", dn.MaxOverAvg, base.MaxOverAvg)
	}
}
