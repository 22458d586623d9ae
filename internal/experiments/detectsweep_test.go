package experiments

import (
	"strings"
	"testing"
)

func TestDetectorSweep(t *testing.T) {
	r := ran(t, "Failure detection")(DetectorSweep(MovieParams{}))
	// No arm diverged and the counters recorded detection latencies: the
	// section's gate rows.
	holdGates(t, "detector-latency", r)
	for _, want := range []string{"hb K=3", "oracle"} {
		if !strings.Contains(r.String(), want) {
			t.Errorf("rendered sweep lacks %q", want)
		}
	}
	for _, sched := range []string{"hadoop-locality", "datanet"} {
		if val(t, r, sched+"/oracle/mean_latency") != 0 || val(t, r, sched+"/oracle/max_latency") != 0 {
			t.Errorf("%s oracle row records latency", sched)
		}
		// Every detector arm pays strictly positive detection latency on a
		// real crash plan — the headline claim of the sweep. (Makespan is
		// NOT asserted against the oracle's: a delayed response changes
		// re-dispatch placement, which can accidentally schedule better;
		// only detection latency is guaranteed monotone.) Longer fixed
		// timeouts cannot detect faster: mean latency must be
		// non-decreasing in K over the heartbeat arms.
		var prev float64
		for _, mode := range []string{"hb K=1", "hb K=2", "hb K=3", "hb K=5", "hb K=8"} {
			mean, mx := val(t, r, sched+"/"+mode+"/mean_latency"), val(t, r, sched+"/"+mode+"/max_latency")
			if mean <= 0 || mx < mean {
				t.Errorf("%s/%s latency mean=%g max=%g, want positive and ordered", sched, mode, mean, mx)
			}
			if mean < prev {
				t.Errorf("%s/%s mean latency %g dropped below the shorter timeout's %g", sched, mode, mean, prev)
			}
			prev = mean
		}
	}
}
