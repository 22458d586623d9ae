package experiments

import (
	"fmt"
	"testing"
)

// smallSweepParams keeps the sweep fast enough for unit tests while still
// exercising both arms end-to-end.
func smallSweepParams() MovieParams {
	return MovieParams{
		Nodes:      8,
		Racks:      2,
		Blocks:     48,
		BlockBytes: 64 << 10,
		Movies:     200,
		Seed:       7,
	}
}

func TestPlacementSweepStructure(t *testing.T) {
	r := ran(t, "placement sweep (clustered workload")(PlacementSweep(smallSweepParams()))
	wantArms := []string{"baseline", "scheduler-only"}
	if len(tablesOf(r)) != 1 {
		t.Fatalf("workloads = %d, want the clustered one", len(tablesOf(r)))
	}
	wantRows(t, r, len(wantArms))
	for i, arm := range wantArms {
		row := tablesOf(r)[0].Rows[i]
		if row[0] != arm {
			t.Errorf("arm[%d] = %q, want %q", i, row[0], arm)
		}
		if key := "clustered/" + arm; val(t, r, key) <= 0 {
			t.Errorf("%s: non-positive job time %v", key, row)
		}
	}
}

// The table's job-time cells are the Values the gates read.
func TestPlacementSweepValuesMatchTable(t *testing.T) {
	r := ran(t, "placement sweep (clustered workload")(PlacementSweep(smallSweepParams()))
	for _, row := range tablesOf(r)[0].Rows {
		key := "clustered/" + row[0]
		if got := fmt.Sprintf("%.1f", val(t, r, key)); got != row[1] {
			t.Errorf("Values[%q] = %s, the table prints %s", key, got, row[1])
		}
	}
}
