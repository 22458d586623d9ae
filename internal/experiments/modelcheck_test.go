package experiments

import (
	"testing"
)

func TestModelCheck(t *testing.T) {
	r := ran(t, "Eq. 5")(ModelCheck(smallEnv(t), []float64{0.2, 1.0}))
	wantRows(t, r, 2)
	for _, a := range []string{"0.20", "1.00"} {
		// Eq. 5 evaluated at the realized α must match the accounting to
		// within rounding (the Bloom side allocates whole filters).
		if rel := val(t, r, a+"/rel_err"); rel > 0.05 {
			t.Errorf("α=%s: model vs actual %g bits (%.1f%% off)", a, val(t, r, a+"/actual_bits"), rel*100)
		}
		if val(t, r, a+"/actual_bits") <= 0 {
			t.Errorf("α=%s: actual bits %g", a, val(t, r, a+"/actual_bits"))
		}
	}
	// More hashing costs more memory.
	if val(t, r, "1.00/actual_bits") <= val(t, r, "0.20/actual_bits") {
		t.Error("memory not increasing with α")
	}
	// The paper-scale block reaches a Table-II-order representation ratio
	// and a plausible χ: model-check's gate rows.
	holdGates(t, "model-check", r)
}

func TestPlacementComparison(t *testing.T) {
	r := ran(t, "placement")(Placement(smallMovie()))
	wantRows(t, r, 3)
	// DataNet is not (meaningfully) worse than the baseline under any of
	// the three policies, and round-robin spreads storage most evenly:
	// placement's gate rows, which name every policy.
	holdGates(t, "placement", r)
	for _, policy := range []string{"random", "rack-aware", "round-robin"} {
		if val(t, r, policy+"/storage_cv") < 0 {
			t.Errorf("%s: negative CV", policy)
		}
	}
}
