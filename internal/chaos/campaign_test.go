package chaos

import (
	"reflect"
	"runtime"
	"testing"
)

// Campaign.Run spreads the seeds over GOMAXPROCS workers: the report must
// be the one a single worker gives, census and violation order included.
// The test sets GOMAXPROCS itself, so every runner sees several workers.
func TestCampaignReportIndependentOfWorkers(t *testing.T) {
	h, err := NewHarness(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// A synthetic campaign whose violations depend on the seed shows the
	// order in which Run concatenates them; the real ones find none. Its
	// checks yield, so the workers interleave.
	synthetic := &Campaign[uint64]{
		Gen: func(seed uint64) uint64 { return seed % 7 },
		Check: func(seed, plan uint64, census Census) []Violation {
			runtime.Gosched()
			census["plans"]++
			census["sum"] += int(plan)
			if plan < 2 {
				return []Violation{{Seed: seed, Arm: "synthetic", Invariant: "low", Detail: "plan below 2"}}
			}
			return nil
		},
	}
	campaigns := []struct {
		name string
		run  func() *Report
	}{
		{"engine", func() *Report { return h.Campaign().Run(24, 1) }},
		{"cluster", func() *Report { return DefaultClusterParams().Campaign().Run(24, 1) }},
		{"synthetic", func() *Report { return synthetic.Run(200, 1) }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range campaigns {
		t.Run(c.name, func(t *testing.T) {
			var ref *Report
			for _, procs := range []int{1, 2, 3, 8} {
				runtime.GOMAXPROCS(procs)
				got := c.run()
				if ref == nil {
					ref = got
					continue
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("GOMAXPROCS %d: report %+v, one worker gives %+v", procs, got, ref)
				}
			}
			if c.name == "synthetic" && len(ref.Violations) == 0 {
				t.Error("the synthetic campaign found no violation to order")
			}
		})
	}
}
