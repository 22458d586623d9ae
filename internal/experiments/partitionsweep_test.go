package experiments

import (
	"strings"
	"testing"
)

// The partition sweep's headline claims, the ones the suite gates assert
// on the full suite's report: the skew-aware
// planner beats hash by ≥10% on the zipfian reduce makespan, and no cell
// ever diverges from the partitioning-off output.
func TestPartitionSweep(t *testing.T) {
	r, err := PartitionSweep(MovieParams{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Rows); got != 12 {
		t.Fatalf("rows = %d, want 12 (3 distributions × 4 strategies)", got)
	}
	ms := r.SimMakespans()
	if ms["zipfian/skew"] > 0.9*ms["zipfian/hash"] {
		t.Errorf("zipfian reduce makespan: skew %.3f s vs hash %.3f s — want ≥10%% win",
			ms["zipfian/skew"], ms["zipfian/hash"])
	}
	c := r.Counters()
	if c["output_divergences"] != 0 {
		t.Errorf("output_divergences = %d", c["output_divergences"])
	}
	if c["zipfian/skew/split_keys"] == 0 {
		t.Error("skew-aware planner split no keys on the zipfian head")
	}
	for _, row := range r.Rows {
		if row.MeanLoad <= 0 || row.MaxLoad < row.MeanLoad {
			t.Errorf("%s/%s: degenerate loads max %.0f mean %.0f",
				row.Dist, row.Strategy, row.MaxLoad, row.MeanLoad)
		}
		if row.ReduceMakespan <= 0 {
			t.Errorf("%s/%s: reduce makespan %.3f", row.Dist, row.Strategy, row.ReduceMakespan)
		}
	}
	out := r.String()
	for _, want := range []string{"uniform", "zipfian", "clustered", "skew", "range"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered sweep missing %q", want)
		}
	}
	if strings.Contains(out, "DIVERGED") {
		t.Error("rendered sweep reports divergence")
	}
}

// Determinism: the sweep is part of the byte-pinned suite golden, so two
// runs must render identically.
func TestPartitionSweepDeterministic(t *testing.T) {
	a, err := PartitionSweep(MovieParams{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionSweep(MovieParams{})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("partition sweep is not deterministic")
	}
}
