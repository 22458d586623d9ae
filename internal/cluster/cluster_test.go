package cluster

import (
	"math"
	"testing"
)

func TestNewHomogeneous(t *testing.T) {
	topo, err := NewHomogeneous(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if topo.N() != 8 {
		t.Fatalf("N=%d", topo.N())
	}
	for i := range topo.N() {
		n := topo.Node(NodeID(i))
		if n.Rack != i%2 {
			t.Errorf("node %d rack %d, want %d", i, n.Rack, i%2)
		}
		if n.CPURate != DefaultCPURate || n.Slots != DefaultSlots {
			t.Errorf("node %d missing defaults: %+v", i, n)
		}
	}
}

func TestNewHomogeneousErrors(t *testing.T) {
	for _, c := range [][2]int{{0, 1}, {-3, 1}, {4, 0}} {
		if _, err := NewHomogeneous(c[0], c[1]); err != ErrBadTopology {
			t.Errorf("NewHomogeneous(%d,%d) err = %v", c[0], c[1], err)
		}
	}
}

func TestMustHomogeneousPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustHomogeneous(0,0) should panic")
		}
	}()
	MustHomogeneous(0, 0)
}

func TestNewHeterogeneous(t *testing.T) {
	specs := []Node{
		{CPURate: 50e6, Rack: 1, Slots: 4},
		{}, // all defaults
		{Rack: 99},
	}
	topo, err := NewHeterogeneous(specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Node(0).CPURate != 50e6 || topo.Node(0).Slots != 4 || topo.Node(0).Rack != 1 {
		t.Errorf("node 0 = %+v", topo.Node(0))
	}
	if topo.Node(1).CPURate != DefaultCPURate || topo.Node(1).DiskRate != DefaultDiskRate {
		t.Errorf("node 1 defaults missing: %+v", topo.Node(1))
	}
	if r := topo.Node(2).Rack; r < 0 || r >= 2 {
		t.Errorf("out-of-range rack not corrected: %d", r)
	}
	if _, err := NewHeterogeneous(nil, 2); err != ErrBadTopology {
		t.Errorf("empty specs err = %v", err)
	}
}

func TestNodePanicsOutOfRange(t *testing.T) {
	topo := MustHomogeneous(2, 1)
	defer func() {
		if recover() == nil {
			t.Error("Node(99) should panic")
		}
	}()
	topo.Node(99)
}

func TestCapacityShares(t *testing.T) {
	topo, _ := NewHeterogeneous([]Node{{CPURate: 100}, {CPURate: 300}}, 1)
	if got := topo.TotalCapacity(); got != 400 {
		t.Fatalf("TotalCapacity = %g", got)
	}
	if got := topo.Node(0).CPURate / topo.TotalCapacity(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("share(0) = %g", got)
	}
}

func TestSameRack(t *testing.T) {
	topo := MustHomogeneous(4, 2) // racks: 0,1,0,1
	if !topo.SameRack(0, 2) || topo.SameRack(0, 1) {
		t.Error("SameRack wrong")
	}
}

func TestIDs(t *testing.T) {
	topo := MustHomogeneous(3, 1)
	ids := topo.IDs()
	if len(ids) != 3 || ids[0] != 0 || ids[2] != 2 {
		t.Errorf("IDs = %v", ids)
	}
}

func TestHealth(t *testing.T) {
	var none *Health
	if none.Suspected(0) || none.Suspected(99) || none.Draining(3) {
		t.Error("a nil table must believe every node live and staying")
	}
	h := NewHealth(4)
	for id := NodeID(0); id < 4; id++ {
		if h.Suspected(id) || h.Draining(id) {
			t.Errorf("fresh table: node %d not live and staying", id)
		}
	}
	// Out of range is unknown, and unknown is believed dead.
	for _, id := range []NodeID{-1, 4, 99} {
		if !h.Suspected(id) || h.Draining(id) {
			t.Errorf("unknown node %d: suspected %v draining %v", id, h.Suspected(id), h.Draining(id))
		}
	}
	h.Suspect(1)
	h.Drain(2)
	h.Drain(1) // both draining and suspected
	if !h.Suspected(1) || !h.Draining(1) || h.Suspected(2) || !h.Draining(2) {
		t.Error("suspicion and draining are not independent bits")
	}
	h.Clear(1)
	if h.Suspected(1) || !h.Draining(1) {
		t.Error("a clearing beat must leave the draining bit")
	}
	h.Clear(6) // grows the table; ids 4 and 5 stay unknown
	if len(h.bits) != 7 || h.Suspected(6) || !h.Suspected(5) || !h.Suspected(4) {
		t.Error("growing the table must leave the ids it skipped unknown")
	}
}
