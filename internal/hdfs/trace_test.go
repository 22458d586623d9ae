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

func TestNoTraceNoEvents(t *testing.T) {
	fs := newFS(t, 8, Config{BlockSize: 512, Seed: 9})
	fs.Write("f", mkRecords(80, 40))
	// No recorder installed: maintenance must not panic.
	if moved, _ := fs.FailNodes([]cluster.NodeID{2}); moved == 0 {
		t.Fatal("fixture: nothing re-replicated")
	}
}
