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
	fix, err := newFaultFixture(p)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := newFaultFixture(p)
	if err != nil {
		t.Fatal(err)
	}
	layout := func(fs *hdfs.FileSystem) [][]cluster.NodeID {
		blocks, err := fs.Blocks("dataset.log")
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]cluster.NodeID, len(blocks))
		for i, b := range blocks {
			out[i] = fs.Locations(b.ID)
		}
		return out
	}
	written := layout(fix.fs)
	healthy, err := mapreduce.Run(fix.job(locality))
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Seed: p.Seed, Crashes: []faults.Crash{
		{Node: 1, At: healthy.FilterEnd * 0.4, RejoinAt: healthy.FilterEnd * 1.2}}}
	onClone, onFresh := fix.job(locality), fix.job(locality)
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
	r := ran(t, "Robustness")(FaultTolerance(MovieParams{}))
	rows := cells(r, "/slowdown")
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	sawCrash := false
	for _, cell := range rows {
		slowdown := val(t, r, cell+"/slowdown")
		if strings.Contains(cell, "/0@") {
			if slowdown != 1 {
				t.Errorf("%s fault-free slowdown = %.2f, want 1", cell, slowdown)
			}
			continue
		}
		sawCrash = true
		if val(t, r, cell+"/recovered") == 0 {
			t.Errorf("%s reports no recovery work", cell)
		}
		if val(t, r, cell+"/repaired") == 0 {
			t.Errorf("%s reports no re-replication", cell)
		}
		if slowdown < 1 {
			t.Errorf("%s ran faster than fault-free (%.2fx)", cell, slowdown)
		}
	}
	if !sawCrash {
		t.Fatal("sweep exercised no crashes")
	}
	// No row diverged, the counters recorded the crashes, and the
	// degraded-metadata arm fell back with the right answer: the section's
	// gate rows. The fallback is recorded in the scheduler's name.
	holdGates(t, "fault-tolerance", r)
	for _, want := range []string{`scheduler "hadoop-locality (fallback`, "output correct: true", "metadata fallbacks"} {
		if !strings.Contains(r.String(), want) {
			t.Errorf("rendering is missing %q", want)
		}
	}
}
