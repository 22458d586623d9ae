package experiments

import (
	"fmt"
	"testing"
)

// smallSweepParams keeps the sweep fast enough for unit tests while still
// exercising every arm end-to-end.
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
	wantArms := []string{"baseline", "scheduler-only", "placement-only", "both"}
	if len(tablesOf(r)) != 1 {
		t.Fatalf("workloads = %d, want the clustered one", len(tablesOf(r)))
	}
	wantRows(t, r, len(wantArms))
	for i, arm := range wantArms {
		row := tablesOf(r)[0].Rows[i]
		if row[0] != arm {
			t.Errorf("arm[%d] = %q, want %q", i, row[0], arm)
		}
		key := "clustered/" + arm
		if val(t, r, key) <= 0 || val(t, r, key+"/first_job") <= 0 || val(t, r, key+"/last_job") <= 0 {
			t.Errorf("%s: non-positive times %v", key, row)
		}
		moves, bytesMoved := val(t, r, key+"/moves"), val(t, r, key+"/bytes_moved")
		rebalances := arm == "placement-only" || arm == "both"
		if rebalances && (moves == 0 || bytesMoved == 0) {
			t.Errorf("%s: rebalancing arm moved nothing: %v", key, row)
		}
		if !rebalances && (moves != 0 || bytesMoved != 0) {
			t.Errorf("%s: scheduler-only arm moved data: %v", key, row)
		}
	}
}

// The table's makespan, moves and bytes-moved cells are the Values the
// bench record and the gates read.
func TestPlacementSweepBenchExports(t *testing.T) {
	r := ran(t, "scheduler+placement vs scheduler-only")(PlacementSweep(smallSweepParams()))
	for _, row := range tablesOf(r)[0].Rows {
		key := "clustered/" + row[0]
		if got := fmt.Sprintf("%.1f", val(t, r, key)); got != row[1] {
			t.Errorf("Values[%q] = %s, the table prints %s", key, got, row[1])
		}
		if got := fmt.Sprint(val(t, r, key+"/moves")); got != row[4] {
			t.Errorf("Values[%q/moves] = %s, the table prints %s", key, got, row[4])
		}
		if got := metricsBytes(int64(val(t, r, key+"/bytes_moved"))); got != row[5] {
			t.Errorf("Values[%q/bytes_moved] = %s, the table prints %s", key, got, row[5])
		}
	}
}
