package hdfs

import (
	"testing"

	"datanet/internal/cluster"
	"datanet/internal/trace"
)

func TestSetTraceReturnsPrevious(t *testing.T) {
	fs := newFS(t, 4, Config{Seed: 1})
	rec := trace.New()
	if prev := fs.SetTrace(rec); prev != nil {
		t.Fatalf("fresh fs had recorder %v", prev)
	}
	if prev := fs.SetTrace(nil); prev != rec {
		t.Fatal("SetTrace did not return the installed recorder")
	}
}

func TestFailNodesEmitsRepairEvents(t *testing.T) {
	fs := newFS(t, 8, Config{BlockSize: 512, Seed: 9})
	fs.Write("f", mkRecords(80, 40))
	rec := trace.New()
	fs.SetTrace(rec)
	fs.SetTraceTime(3.5)
	moved, lost := fs.FailNodes([]cluster.NodeID{2})
	if len(lost) != 0 {
		t.Fatalf("fixture lost blocks %v", lost)
	}
	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events, want 1 re-replication summary", len(evs))
	}
	ev := evs[0]
	if ev.Type != trace.EvRereplicate || ev.Count != moved ||
		ev.T != 3.5 || ev.Detail != "crash-repair" {
		t.Fatalf("event = %+v (moved=%d)", ev, moved)
	}
}

func TestFailNodesEmitsBlockLost(t *testing.T) {
	// 3 nodes, replication 3: killing all nodes loses every block.
	topo := cluster.MustHomogeneous(3, 1)
	fs, err := NewFileSystem(topo, Config{BlockSize: 512, Replication: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fs.Write("f", mkRecords(10, 40))
	rec := trace.New()
	fs.SetTrace(rec)
	_, lost := fs.FailNodes([]cluster.NodeID{0, 1, 2})
	if len(lost) == 0 {
		t.Fatal("fixture: nothing lost")
	}
	found := 0
	for _, ev := range rec.Events() {
		if ev.Type == trace.EvBlockLost {
			found++
		}
	}
	if found != len(lost) {
		t.Fatalf("%d block-lost events for %d lost blocks", found, len(lost))
	}
}

func TestRebalanceTickEmits(t *testing.T) {
	_, rb, _ := hotFixture(t, RebalancerConfig{Mode: RebalanceHotSpot})
	rec := trace.New()
	rb.fs.SetTrace(rec)
	plan, err := rb.Tick(4)
	if err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	if len(plan.Moves) == 0 || len(evs) != 1 {
		t.Fatalf("%d moves, %d events; want moves and one tick summary", len(plan.Moves), len(evs))
	}
	if ev := evs[0]; ev.Type != trace.EvRebalance || ev.T != 4 || ev.Count != len(plan.Moves) || ev.Detail != "hotspot" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestNoTraceNoEvents(t *testing.T) {
	fs, rb, _ := hotFixture(t, RebalancerConfig{Mode: RebalanceBoth})
	// No recorder installed: maintenance must not panic.
	fs.FailNodes([]cluster.NodeID{2})
	if _, err := rb.Tick(0); err != nil {
		t.Fatal(err)
	}
}
