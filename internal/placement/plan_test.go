package placement

import (
	"errors"
	"strings"
	"testing"

	"datanet/internal/cluster"
)

func TestPlanBytesMoved(t *testing.T) {
	p := Plan{Moves: []Move{
		{Block: 0, From: 1, To: 2, Bytes: 100},
		{Block: 1, From: AddReplica, To: 3, Bytes: 250},
	}}
	if got := p.BytesMoved(); got != 350 {
		t.Errorf("BytesMoved = %d, want 350", got)
	}
	if got := (Plan{}).BytesMoved(); got != 0 {
		t.Errorf("empty plan BytesMoved = %d", got)
	}
}

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

func TestValidateAcceptsHealthyTargets(t *testing.T) {
	p := Plan{Moves: []Move{
		{Block: 0, From: 0, To: 1, Bytes: 10},
		{Block: 1, From: AddReplica, To: 3, Bytes: 10},
	}}
	for _, h := range []*cluster.Health{nil, health(nil, nil)} {
		if err := p.Validate(h); err != nil {
			t.Errorf("healthy plan rejected: %v", err)
		}
	}
}

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
			m := Move{Block: 5, From: 0, To: tc.to, Bytes: 64}
			err := Plan{Moves: []Move{m}}.Validate(tc.health)
			if err == nil {
				t.Fatal("move toward vetoed node accepted")
			}
			if !errors.Is(err, ErrVetoedTarget) {
				t.Errorf("errors.Is(err, ErrVetoedTarget) = false for %v", err)
			}
			var ve *VetoError
			if !errors.As(err, &ve) {
				t.Fatalf("err %T does not unwrap to *VetoError", err)
			}
			if ve.Move != m {
				t.Errorf("VetoError.Move = %+v, want %+v", ve.Move, m)
			}
			if ve.Reason != tc.reason {
				t.Errorf("VetoError.Reason = %v, want %v", ve.Reason, tc.reason)
			}
			if !strings.Contains(ve.Error(), "block 5") {
				t.Errorf("error text %q does not name the block", ve.Error())
			}
		})
	}
}

func TestValidateReportsFirstOffender(t *testing.T) {
	h := health(nil, []cluster.NodeID{1, 3})
	p := Plan{Moves: []Move{
		{Block: 0, From: 0, To: 2, Bytes: 10}, // fine
		{Block: 1, From: 0, To: 3, Bytes: 10}, // first offender
		{Block: 2, From: 0, To: 1, Bytes: 10}, // also bad, but later
	}}
	var ve *VetoError
	if err := p.Validate(h); !errors.As(err, &ve) {
		t.Fatalf("err = %v", err)
	}
	if ve.Move.Block != 1 || ve.Move.To != 3 {
		t.Errorf("reported move %+v, want the first offending one", ve.Move)
	}
}

func TestViewVetoSourceUnconstrained(t *testing.T) {
	// Only targets are vetoed: moving a replica *off* a decommissioned
	// node is exactly what draining wants.
	p := Plan{Moves: []Move{{Block: 0, From: 0, To: 2, Bytes: 10}}}
	if err := p.Validate(health(nil, []cluster.NodeID{0})); err != nil {
		t.Errorf("drain move rejected: %v", err)
	}
}
