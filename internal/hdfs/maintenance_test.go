package hdfs

import (
	"math"
	"testing"

	"datanet/internal/cluster"
)

func TestFailNodesRepairs(t *testing.T) {
	fs := newFS(t, 8, Config{BlockSize: 512, Seed: 9})
	fs.Write("f", mkRecords(80, 40))
	dead := []cluster.NodeID{2, 5}
	moved, lost := fs.FailNodes(dead)
	if len(lost) != 0 {
		t.Fatalf("unexpected lost blocks %v with replication 3 and 2 dead of 8", lost)
	}
	if moved == 0 {
		t.Fatal("expected re-replication")
	}
	for _, d := range dead {
		if n := len(fs.NodeBlocks(d)); n != 0 {
			t.Errorf("dead node %d still holds %d blocks", d, n)
		}
	}
	if bad := fs.ReplicationHealth(); len(bad) != 0 {
		t.Errorf("replication violated for blocks %v", bad)
	}
	// Idempotent for an already-processed superset.
	moved2, lost2 := fs.FailNodes(dead)
	if moved2 != 0 || len(lost2) != 0 {
		t.Errorf("second FailNodes moved %d, lost %v; want 0, none", moved2, lost2)
	}
	// The set is the name-node's whole belief: node 2, left out of a later
	// call, is live again, and as the emptiest node it takes the repairs.
	if moved, _ := fs.FailNodes([]cluster.NodeID{5, 0}); moved == 0 || len(fs.NodeBlocks(2)) == 0 {
		t.Error("a node left out of a later FailNodes must be believed live again")
	}
}

func TestFailNodesSimultaneousLossIsFatal(t *testing.T) {
	// Replication 2 on 4 nodes: kill two nodes at once; every block whose
	// both replicas sat on them is unrecoverable.
	topo := cluster.MustHomogeneous(4, 1)
	fs, err := NewFileSystem(topo, Config{BlockSize: 512, Replication: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fs.Write("f", mkRecords(120, 40))
	var victim []cluster.NodeID
	var doomed BlockID = -1
	for _, b := range fs.blocks {
		if len(b.Replicas) == 2 {
			victim = append([]cluster.NodeID(nil), b.Replicas...)
			doomed = b.ID
			break
		}
	}
	if doomed == -1 {
		t.Fatal("fixture: no 2-replica block")
	}
	_, lost := fs.FailNodes(victim)
	found := false
	for _, id := range lost {
		if id == doomed {
			found = true
		}
	}
	if !found {
		t.Errorf("block %d should be lost after both holders died at once; lost = %v", doomed, lost)
	}
	if len(fs.Block(doomed).Replicas) != 0 {
		t.Error("lost block must hold no replicas")
	}
	// Sequential failure of the same nodes would have saved the block:
	// re-replication between the crashes restores redundancy.
	fs2, _ := NewFileSystem(cluster.MustHomogeneous(4, 1), Config{BlockSize: 512, Replication: 2, Seed: 3})
	fs2.Write("f", mkRecords(120, 40))
	if _, lost := fs2.FailNodes(victim[:1]); len(lost) != 0 {
		t.Fatalf("single failure lost %v", lost)
	}
	if _, lost := fs2.FailNodes(victim); len(lost) != 0 {
		t.Errorf("sequential failure lost %v; re-replication should have saved all blocks", lost)
	}
}

func TestFailNodesUnderReplicated(t *testing.T) {
	// 4 nodes, replication 3, 2 dead: only 2 live nodes remain, so blocks
	// stay under-replicated (not lost) and health reports them.
	topo := cluster.MustHomogeneous(4, 1)
	fs, err := NewFileSystem(topo, Config{BlockSize: 512, Replication: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fs.Write("f", mkRecords(40, 40))
	_, lost := fs.FailNodes([]cluster.NodeID{0, 1})
	if len(lost) != 0 {
		t.Fatalf("replication 3 with 2 dead cannot lose data, lost %v", lost)
	}
	if bad := fs.ReplicationHealth(); len(bad) == 0 {
		t.Error("expected under-replicated blocks to be reported")
	}
	for _, b := range fs.blocks {
		if len(b.Replicas) != 2 {
			t.Errorf("block %d has %d replicas, want 2 (both survivors)", b.ID, len(b.Replicas))
		}
	}
}

func TestBalanceReport(t *testing.T) {
	fs := newFS(t, 6, Config{BlockSize: 512, Seed: 3})
	if cv := fs.Balance(); cv != 0 {
		t.Errorf("empty filesystem CV = %g, want 0", cv)
	}
	fs.Write("f", mkRecords(60, 40))
	if cv := fs.Balance(); !(cv > 0) || math.IsInf(cv, 0) {
		t.Errorf("implausible CV %g", cv)
	}
}
