package mapreduce

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/sched"
	"datanet/internal/trace"
)

// TestMain arms an end-of-phase check for every filter phase the package's
// tests run: once the kernel has stopped and the barrier kills are done, no
// read-errored attempt may still be counted in flight. That count decides
// whether drained slots may retire: left high it keeps them polling for
// nothing, left low it retires them while a requeue is still coming. The
// same hook takes RunAtBarrier's copy of the Result.
func TestMain(m *testing.M) {
	filterEndCheck = func(s *filterSim) {
		if s.readErrs != 0 {
			panic(fmt.Sprintf("filter phase ended with %d read-errored attempts counted in flight", s.readErrs))
		}
		noteBarrier(s)
	}
	os.Exit(m.Run())
}

// TestDrainedSlotsRetire: with no faults, no detector and no mitigation no
// work can appear once the scheduler is drained, so a slot that finds
// nothing retires instead of polling again. The kernel then delivers
// exactly one slot-free per slot (its first request) and one attempt-done
// per task — events proportional to tasks, whatever the cluster size.
func TestDrainedSlotsRetire(t *testing.T) {
	for _, nodes := range []int{4, 8} {
		for _, p := range []struct {
			name    string
			factory sched.Factory
		}{{"datanet", sched.NewDataNetPicker}, {"locality", sched.NewLocalityPicker}} {
			t.Run(fmt.Sprintf("%s-%dn", p.name, nodes), func(t *testing.T) {
				fs := faultEnv(t, nodes)
				kern := trace.New()
				cfg := Config{FS: fs, File: "log", TargetSub: "movie-A", App: apps.WordCount{},
					Picker: p.factory, KernelTrace: kern}
				if p.name == "datanet" {
					cfg.Weights = oracleWeights(t, fs, "movie-A")
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				topo := fs.Topology()
				slots := 0
				for _, id := range topo.IDs() {
					slots += topo.Node(id).Slots
				}
				if len(res.Tasks) <= slots {
					t.Fatalf("%d tasks on %d slots: the case needs slots that drain mid-phase", len(res.Tasks), slots)
				}
				got := map[string]int{}
				for _, ev := range kern.Events() {
					got[ev.Detail]++
				}
				want := map[string]int{"slot-free": slots, "attempt-done": len(res.Tasks)}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("kernel deliveries %v, want %v", got, want)
				}
			})
		}
	}
}
