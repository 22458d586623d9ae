package experiments

import (
	"fmt"
	"strings"
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
	r := ran(t, "placement sweep")(PlacementSweep(smallSweepParams()))
	wantArms := []string{"baseline", "scheduler-only", "placement-only", "both"}
	tables := tablesOf(r)
	if len(tables) != 2 {
		t.Fatalf("workloads = %d, want clustered + drifting", len(tables))
	}
	for wi, wl := range []string{"clustered", "drifting"} {
		if !strings.Contains(tables[wi].Title, wl+" workload") {
			t.Errorf("table %d is %q, want the %s workload", wi, tables[wi].Title, wl)
		}
		if len(tables[wi].Rows) != len(wantArms) {
			t.Fatalf("%s: arms = %d, want %d", wl, len(tables[wi].Rows), len(wantArms))
		}
		for i, arm := range wantArms {
			row := tables[wi].Rows[i]
			if row[0] != arm {
				t.Errorf("%s: arm[%d] = %q, want %q", wl, i, row[0], arm)
			}
			key := wl + "/" + arm
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
}

// The table's makespan, moves and bytes-moved cells are the Values the
// bench record and the gates read.
func TestPlacementSweepBenchExports(t *testing.T) {
	r := ran(t, "bytes moved")(PlacementSweep(smallSweepParams()))
	for _, table := range tablesOf(r) {
		wl, _, _ := strings.Cut(strings.TrimPrefix(table.Title, "Extension — placement sweep ("), " ")
		for _, row := range table.Rows {
			key := wl + "/" + row[0]
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
	out := r.String()
	for _, want := range []string{"placement sweep (clustered workload", "placement sweep (drifting workload",
		"scheduler+placement vs scheduler-only"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered sweep missing %q", want)
		}
	}
}
