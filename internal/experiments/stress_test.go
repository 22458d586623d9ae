package experiments

import "testing"

// TestPaperScaleStress runs the headline comparison at the paper's full
// cluster scale: 128 nodes (Marmot), 1024 blocks. Guarded by -short since
// it takes tens of seconds.
func TestPaperScaleStress(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale stress run; skipped in -short")
	}
	p := MovieParams{
		Nodes:      128,
		Racks:      8,
		Blocks:     1024,
		BlockBytes: 256 << 10,
		Movies:     8000,
		Alpha:      0.3,
		Seed:       4242,
	}
	env, err := NewMovieEnv(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Fig5(env)
	if err != nil {
		t.Fatal(err)
	}
	if imp := val(t, r, "TopKSearch/improvement"); imp < 0.15 {
		t.Fatalf("TopK improvement at 128 nodes = %.3f", imp)
	}
	without, with := val(t, r, "workload/baseline_max_avg"), val(t, r, "workload/datanet_max_avg")
	if with >= without {
		t.Errorf("DataNet imbalance %.2f not better than baseline %.2f at 128 nodes", with, without)
	}
	// §II-B at scale: the baseline's imbalance at 128 nodes exceeds the
	// 32-node default (cross-checked by ClusterSweep).
	if without < 1.5 {
		t.Errorf("128-node baseline imbalance only %.2f — clustering lost at scale", without)
	}
}
