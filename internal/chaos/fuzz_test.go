package chaos

import (
	"fmt"
	"reflect"
	"testing"

	"datanet/internal/faults"
)

// FuzzPlan drives both campaigns' plan generators with arbitrary seeds
// (and the engine's with arbitrary horizons): every plan must validate,
// respect its campaign's caps, and regenerate identically from its seed.
func FuzzPlan(f *testing.F) {
	f.Add(uint64(1), 0.2)
	f.Add(uint64(0), 0.0)
	f.Add(uint64(0xdeadbeef), 1e6)
	f.Add(^uint64(0), 1e-9)
	p, cp := DefaultParams(), DefaultClusterParams()
	f.Fuzz(func(t *testing.T, seed uint64, horizon float64) {
		if horizon < 0 || horizon > 1e9 || horizon != horizon {
			t.Skip("horizon outside the domain the harness derives")
		}
		// Gen reads only the params and the horizon, not the fixture.
		checkGen(t, (&Harness{p: p, horizon: horizon}).Campaign(), seed, func(plan *faults.Plan) error {
			if len(plan.Crashes) > p.MaxCrashes || len(plan.Slow) > p.MaxSlow {
				return fmt.Errorf("plan exceeds entry caps")
			}
			return plan.Validate(p.Nodes)
		})
		checkGen(t, cp.Campaign(), seed, func(plan *ClusterPlan) error {
			if len(plan.Ops) > cp.MaxOps+1 {
				return fmt.Errorf("plan has %d ops, cap %d plus a trailing rejoin", len(plan.Ops), cp.MaxOps)
			}
			return ValidateClusterPlan(plan, cp)
		})
	})
}

// checkGen generates seed's plan through the campaign's Gen, checks it
// with valid, and regenerates it.
func checkGen[P any](t *testing.T, c *Campaign[P], seed uint64, valid func(P) error) {
	t.Helper()
	plan := c.Gen(seed)
	if err := valid(plan); err != nil {
		t.Fatalf("seed %d: invalid plan: %v\n%+v", seed, err, plan)
	}
	if !reflect.DeepEqual(plan, c.Gen(seed)) {
		t.Fatalf("seed %d: plan generation not deterministic", seed)
	}
}
