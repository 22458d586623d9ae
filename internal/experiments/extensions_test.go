package experiments

import (
	"testing"

	"datanet/internal/stats"
)

func TestTheoryValidation(t *testing.T) {
	// Small but meaningful: 128 blocks on 16 nodes, 2 layouts. The gate
	// rows hold parameter recovery within 25% at this sample size, a valid
	// MLE, and the Gamma model fitting its own generator.
	r := ran(t, "Theory validation")(Theory(stats.Gamma{K: 1.2, Theta: 7}, 128, 16, 2))
	holdGates(t, "theory", r)
	// Measured extreme-node counts in the analytic ballpark (loose: few
	// layouts, discrete counts).
	if expected := val(t, r, "above_double/analytic"); expected > 0.5 {
		measured := val(t, r, "above_double/measured")
		if ratio := measured / expected; ratio < 0.3 || ratio > 3 {
			t.Errorf(">2E: measured %.2f vs analytic %.2f", measured, expected)
		}
	}
}

func TestClusterSweep(t *testing.T) {
	r := ran(t, "cluster size")(ClusterSweep([]int{4, 8, 16}, smallMovie()))
	wantRows(t, r, 3)
	// §II-B: baseline imbalance grows with the cluster size.
	if small, large := val(t, r, "4/baseline_max_avg"), val(t, r, "16/baseline_max_avg"); large <= small {
		t.Errorf("imbalance not growing: %.2f (4 nodes) vs %.2f (16 nodes)", small, large)
	}
	// DataNet tracks closer to 1 than the baseline at the largest size.
	if dn, base := val(t, r, "16/datanet_max_avg"), val(t, r, "16/baseline_max_avg"); dn >= base {
		t.Errorf("DataNet (%.2f) not better than baseline (%.2f) at 16 nodes", dn, base)
	}
}

func TestHeterogeneity(t *testing.T) {
	holdGates(t, "heterogeneity", ran(t, "heterogeneous")(Heterogeneity(smallMovie())))
}

func TestReactiveComparison(t *testing.T) {
	r := ran(t, "proactive vs reactive")(Reactive(smallEnv(t)))
	wantRows(t, r, 4)
	holdGates(t, "reactive", r)
}

func TestIOSaving(t *testing.T) {
	r := ran(t, "I/O saving")(IOSaving(smallEnv(t), []int{0, 50, 200}))
	wantRows(t, r, 3)
	for _, rank := range cells(r, "/skipped_blocks") {
		if skipped := val(t, r, rank+"/skipped_blocks"); skipped < 0 || skipped > val(t, r, "blocks") {
			t.Errorf("rank %s: skipped %g of %g", rank, skipped, val(t, r, "blocks"))
		}
		if saved := val(t, r, rank+"/scan_saved"); saved < 0 || saved > 1 {
			t.Errorf("rank %s: saved %g", rank, saved)
		}
	}
	// A mid-tail movie leaves more blocks skippable than the blockbuster.
	if tail, top := val(t, r, "200/skipped_blocks"), val(t, r, "0/skipped_blocks"); tail <= top {
		t.Errorf("rarer target skipped fewer blocks: %g vs %g", tail, top)
	}
}
