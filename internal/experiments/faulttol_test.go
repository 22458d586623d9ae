package experiments

import (
	"reflect"
	"strings"
	"testing"

	"datanet/internal/cluster"
	"datanet/internal/faults"
	"datanet/internal/hdfs"
	"datanet/internal/mapreduce"
)

// A job on a clone of the fixture is the job on a freshly written
// filesystem: same replica of every block, byte-equal Result under a
// crash-and-rejoin plan — and the crash's re-replication stays on the clone.
func TestFixtureCloneIsAFreshFilesystem(t *testing.T) {
	p := DefaultFaultParams()
	fix, err := newFaultFixture(movieLog(p), p)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := newFaultFixture(movieLog(p), p)
	if err != nil {
		t.Fatal(err)
	}
	layout := func(fs *hdfs.FileSystem) [][]cluster.NodeID {
		out := make([][]cluster.NodeID, fs.NumBlocks())
		for i := range out {
			out[i] = fs.Locations(hdfs.BlockID(i))
		}
		return out
	}
	written := layout(fix.fs)
	healthy, err := mapreduce.Run(fix.config())
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Seed: p.Seed, Crashes: []faults.Crash{
		{Node: 1, At: healthy.FilterEnd * 0.4, RejoinAt: healthy.FilterEnd * 1.2}}}
	onClone, onFresh := fix.config(), fix.config()
	onFresh.FS = fresh.fs // a filesystem written for this one job, as the sweeps did before
	if !reflect.DeepEqual(layout(onClone.FS), layout(onFresh.FS)) {
		t.Fatal("a clone places some block differently from a fresh write")
	}
	onClone.Faults, onFresh.Faults = plan, plan
	a, err := mapreduce.Run(onClone)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mapreduce.Run(onFresh)
	if err != nil {
		t.Fatal(err)
	}
	if a.ReplicasRepaired == 0 || a.LostOutputs == 0 {
		t.Fatalf("the plan repaired %d replicas and lost %d outputs; the test exercises nothing", a.ReplicasRepaired, a.LostOutputs)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("Result on a clone differs from the Result on a fresh filesystem")
	}
	if reflect.DeepEqual(layout(onClone.FS), written) {
		t.Error("the crash left the clone's replica map as written")
	}
	if !reflect.DeepEqual(layout(fix.fs), written) {
		t.Error("a crash on a clone changed the fixture's replica map")
	}
}

func TestFaultTolerance(t *testing.T) {
	res, err := FaultTolerance(MovieParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	sawCrash := false
	for _, row := range res.Rows {
		if !row.OutputOK {
			t.Errorf("%s with %d crashes produced a diverged output", row.Scheduler, row.Crashes)
		}
		if row.Crashes == 0 {
			if row.Slowdown != 1 {
				t.Errorf("%s fault-free slowdown = %.2f, want 1", row.Scheduler, row.Slowdown)
			}
			continue
		}
		sawCrash = true
		if row.Retried == 0 && row.Lost == 0 {
			t.Errorf("%s with %d crashes reports no recovery work", row.Scheduler, row.Crashes)
		}
		if row.Repaired == 0 {
			t.Errorf("%s with %d crashes reports no re-replication", row.Scheduler, row.Crashes)
		}
		if row.Slowdown < 1 {
			t.Errorf("%s with %d crashes ran faster than fault-free (%.2fx)", row.Scheduler, row.Crashes, row.Slowdown)
		}
	}
	if !sawCrash {
		t.Fatal("sweep exercised no crashes")
	}
	if !res.Counters.Any() || res.Counters.NodeCrashes == 0 {
		t.Errorf("counters did not record the sweep: %+v", res.Counters)
	}
	if !res.FallbackOK {
		t.Error("degraded-metadata arm did not fall back correctly")
	}
	if !strings.Contains(res.FallbackSched, "fallback") {
		t.Errorf("fallback scheduler name %q does not record degradation", res.FallbackSched)
	}
	if out := res.String(); !strings.Contains(out, "Robustness") || !strings.Contains(out, "metadata fallbacks") {
		t.Error("rendering is missing expected sections")
	}
}
