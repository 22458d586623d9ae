package experiments

import (
	"strings"
	"testing"
)

// The partition sweep's headline claims are the gate rows declared beside
// it: the skew-aware planner beats hash by ≥10% on the zipfian reduce
// makespan by splitting keys, and no cell ever diverges from the
// partitioning-off output.
func TestPartitionSweep(t *testing.T) {
	r := ran(t, "key-aware reduce partitioning")(PartitionSweep(MovieParams{}))
	wantRows(t, r, 12) // 3 distributions × 4 strategies
	holdGates(t, "partition-sweep", r)
	for _, cell := range cells(r, "/mean_load") {
		if mean, mx := val(t, r, cell+"/mean_load"), val(t, r, cell+"/max_load"); mean <= 0 || mx < mean {
			t.Errorf("%s: degenerate loads max %.0f mean %.0f", cell, mx, mean)
		}
		if val(t, r, cell) <= 0 {
			t.Errorf("%s: reduce makespan %.3f", cell, val(t, r, cell))
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
	a := ran(t, "partitioning")(PartitionSweep(MovieParams{}))
	b := ran(t, "partitioning")(PartitionSweep(MovieParams{}))
	if a.String() != b.String() {
		t.Error("partition sweep is not deterministic")
	}
}
