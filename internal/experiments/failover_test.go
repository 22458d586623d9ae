package experiments

import (
	"testing"
)

func TestFailoverSweep(t *testing.T) {
	r := ran(t, "Metadata failover")(FailoverSweep())
	wantRows(t, r, 2) // one row per detector arm
	// No arm lost data, the aggressive heartbeat detects sooner than the
	// lazy one, and the leader moves when detection closes: the section's
	// gate rows.
	holdGates(t, "failover-sweep", r)
	for _, cell := range cells(r, "/detect_ticks") {
		detect, promote, converge := val(t, r, cell+"/detect_ticks"), val(t, r, cell+"/promote_ticks"), val(t, r, cell+"/converge_ticks")
		if detect <= 0 || promote < detect || converge < promote {
			t.Errorf("%s windows out of order: detect=%g promote=%g converge=%g", cell, detect, promote, converge)
		}
		if val(t, r, cell+"/promotions") < 1 {
			t.Errorf("%s recorded no promotions for a crashed primary", cell)
		}
	}
}

// The sweep runs on the logical clock only: identical runs must render
// identically, or the suite golden flakes.
func TestFailoverSweepDeterministic(t *testing.T) {
	a := ran(t, "Metadata failover")(FailoverSweep())
	b := ran(t, "Metadata failover")(FailoverSweep())
	if a.String() != b.String() {
		t.Fatalf("non-deterministic render:\n%s\nvs\n%s", a, b)
	}
}
