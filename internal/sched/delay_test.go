package sched

import (
	"testing"

	"datanet/internal/cluster"
)

func TestDelayedLocalityDeclinesThenServes(t *testing.T) {
	topo := cluster.MustHomogeneous(2, 1)
	tasks := []Task{
		{Block: 0, Index: 0, Locations: []cluster.NodeID{0}},
		{Block: 1, Index: 1, Locations: []cluster.NodeID{0}},
	}
	p := NewDelayedLocalityPicker(2)(tasks, topo)
	if p.Name() != "hadoop-delay" {
		t.Errorf("Name = %q", p.Name())
	}
	// Node 1 has no locals: it must decline exactly `delay` times, then
	// accept remote work.
	for i := 0; i < 2; i++ {
		if _, _, ok := p.Next(1); ok {
			t.Fatalf("request %d should have been declined", i)
		}
	}
	if task, _, ok := p.Next(1); !ok || task.Block != 0 {
		t.Fatalf("after the delay, node 1 should get remote block 0; got %v, %v", task, ok)
	}
	// Node 0 is served its local block immediately.
	if task, _, ok := p.Next(0); !ok || task.Block != 1 {
		t.Fatalf("node 0 local pick = %v, %v", task, ok)
	}
	if p.Remaining() != 0 {
		t.Errorf("Remaining = %d", p.Remaining())
	}
	if _, _, ok := p.Next(0); ok {
		t.Error("exhausted picker served a task")
	}
}

func TestDelayedLocalityImprovesLocality(t *testing.T) {
	topo := cluster.MustHomogeneous(8, 2)
	tasks := mkTasks(64, 8, []int64{100}, 21)
	countLocal := func(f Factory) (local, remote int) {
		p := f(tasks, topo)
		for i := 0; p.Remaining() > 0; i++ {
			node := cluster.NodeID(i % 8)
			task, _, ok := p.Next(node)
			if !ok {
				continue
			}
			if isLocal(task, node) {
				local++
			} else {
				remote++
			}
		}
		return local, remote
	}
	_, remotePlain := countLocal(NewLocalityPicker)
	_, remoteDelay := countLocal(NewDelayedLocalityPicker(4))
	if remoteDelay > remotePlain {
		t.Errorf("delay scheduling increased remote tasks: %d vs %d", remoteDelay, remotePlain)
	}
}

func TestDelayedLocalityDrainsEverything(t *testing.T) {
	topo := cluster.MustHomogeneous(4, 2)
	tasks := mkTasks(30, 4, []int64{7, 0, 13}, 22)
	p := NewDelayedLocalityPicker(3)(tasks, topo)
	served := 0
	for i := 0; served < len(tasks); i++ {
		if i > 10000 {
			t.Fatal("picker did not drain")
		}
		if _, _, ok := p.Next(cluster.NodeID(i % 4)); ok {
			served++
		}
	}
	if p.Remaining() != 0 {
		t.Errorf("Remaining = %d after drain", p.Remaining())
	}
}

// Stealing prefers the lightest remaining tasks and tasks local to the
// thief, so a precomputed capacity-aware plan survives execution.
func TestDataNetStealLightestFirst(t *testing.T) {
	topo := cluster.MustHomogeneous(3, 1)
	tasks := []Task{
		{Block: 0, Index: 0, Weight: 1000, Locations: []cluster.NodeID{0}},
		{Block: 1, Index: 1, Weight: 500, Locations: []cluster.NodeID{0}},
		{Block: 2, Index: 2, Weight: 0, Locations: []cluster.NodeID{0}},
		{Block: 3, Index: 3, Weight: 0, Locations: []cluster.NodeID{0}},
	}
	p := NewDataNetPicker(tasks, topo)
	// Nodes 1 and 2 hold nothing: their steals must take the zero-weight
	// tasks first, leaving the weighted plan on node 0 intact.
	t1, _, ok := p.Next(1)
	if !ok || t1.Weight != 0 {
		t.Fatalf("first steal = %+v", t1)
	}
	t2, _, ok := p.Next(2)
	if !ok || t2.Weight != 0 {
		t.Fatalf("second steal = %+v", t2)
	}
	// Node 0 still serves its heavy tasks in descending order.
	h1, _, _ := p.Next(0)
	h2, _, _ := p.Next(0)
	if h1.Weight != 1000 || h2.Weight != 500 {
		t.Errorf("plan eroded: %d, %d", h1.Weight, h2.Weight)
	}
}
