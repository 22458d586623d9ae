package placement

import (
	"testing"

	"datanet/internal/cluster"
)

// health builds a 4-node table, suspecting and draining the given nodes.
func health(suspect, drain []cluster.NodeID) *cluster.Health {
	h := cluster.NewHealth(4)
	for _, id := range suspect {
		h.Suspect(id)
	}
	for _, id := range drain {
		h.Drain(id)
	}
	return h
}

// A target is validated by HealthVeto: with no table, or with every node
// live, no target is vetoed.
func TestValidateAcceptsHealthyTargets(t *testing.T) {
	for _, h := range []*cluster.Health{nil, health(nil, nil)} {
		veto := HealthVeto(h)
		for id := cluster.NodeID(0); id < 4; id++ {
			if got := veto(id); got != VetoNone {
				t.Errorf("healthy target %d vetoed: %v", id, got)
			}
		}
	}
}

// Each unhealthy target is vetoed with its typed reason.
func TestValidateTypedVetoErrors(t *testing.T) {
	cases := []struct {
		name   string
		health *cluster.Health
		to     cluster.NodeID
		reason VetoReason
	}{
		{"decommissioned", health(nil, []cluster.NodeID{2}), 2, VetoDecommissioned},
		{"dead", health([]cluster.NodeID{1}, nil), 1, VetoDead},
		{"suspected", health([]cluster.NodeID{3}, nil), 3, VetoDead},
		{"suspected-and-draining", health([]cluster.NodeID{1}, []cluster.NodeID{1}), 1, VetoDead},
		{"out-of-range", health(nil, nil), 7, VetoDead},
		{"negative", health(nil, nil), -2, VetoDead},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := HealthVeto(tc.health)(tc.to); got != tc.reason {
				t.Errorf("HealthVeto(node %d) = %v, want %v", tc.to, got, tc.reason)
			}
		})
	}
}
