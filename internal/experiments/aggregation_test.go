package experiments

import (
	"testing"
)

// Output-aware placement never increases the shuffle, and with imbalanced
// output and few reducers the saving is real: aggregation's gate rows.
func TestAggregation(t *testing.T) {
	r := ran(t, "aggregation-aware")(Aggregation(smallEnv(t), []int{2, 4}))
	wantRows(t, r, 4)
	holdGates(t, "aggregation", r)
}

func TestAmortization(t *testing.T) {
	holdGates(t, "amortization", ran(t, "amortization")(Amortization(smallEnv(t))))
}
