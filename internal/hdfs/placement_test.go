package hdfs

import (
	"math/rand"
	"testing"

	"datanet/internal/cluster"
	"datanet/internal/placement"
)

func distinct(ids []cluster.NodeID) bool {
	seen := map[cluster.NodeID]bool{}
	for _, id := range ids {
		if seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

func TestRandomPlacement(t *testing.T) {
	topo := cluster.MustHomogeneous(10, 2)
	rng := rand.New(rand.NewSource(1))
	p := placement.Random{}
	if p.Name() != "random" {
		t.Errorf("Name = %q", p.Name())
	}
	counts := make([]int, 10)
	for i := 0; i < 2000; i++ {
		got := p.Choose(topo, rng, 3)
		if len(got) != 3 || !distinct(got) {
			t.Fatalf("bad placement %v", got)
		}
		for _, id := range got {
			counts[id]++
		}
	}
	// Uniformity: each node holds ~600 replicas; allow wide tolerance.
	for i, c := range counts {
		if c < 450 || c > 750 {
			t.Errorf("node %d holds %d replicas, expected ≈600", i, c)
		}
	}
}

func TestRackAwarePlacement(t *testing.T) {
	topo := cluster.MustHomogeneous(12, 3)
	rng := rand.New(rand.NewSource(2))
	p := placement.RackAware{}
	if p.Name() != "rack-aware" {
		t.Errorf("Name = %q", p.Name())
	}
	for i := 0; i < 500; i++ {
		got := p.Choose(topo, rng, 3)
		if len(got) != 3 || !distinct(got) {
			t.Fatalf("bad placement %v", got)
		}
		// HDFS default semantics: second replica on another rack, third on
		// the second's rack.
		if topo.SameRack(got[0], got[1]) {
			t.Errorf("replicas 0,1 share a rack: %v", got)
		}
		if !topo.SameRack(got[1], got[2]) {
			t.Errorf("replicas 1,2 on different racks: %v", got)
		}
	}
}

func TestRackAwareSingleRackFallback(t *testing.T) {
	topo := cluster.MustHomogeneous(4, 1) // no second rack exists
	rng := rand.New(rand.NewSource(3))
	got := placement.RackAware{}.Choose(topo, rng, 3)
	if len(got) != 3 || !distinct(got) {
		t.Fatalf("fallback placement broken: %v", got)
	}
}

func TestRackAwareReplicationOne(t *testing.T) {
	topo := cluster.MustHomogeneous(4, 2)
	rng := rand.New(rand.NewSource(4))
	if got := (placement.RackAware{}).Choose(topo, rng, 1); len(got) != 1 {
		t.Fatalf("replication 1 placement: %v", got)
	}
}

func TestRackAwareFullCluster(t *testing.T) {
	topo := cluster.MustHomogeneous(3, 2)
	rng := rand.New(rand.NewSource(5))
	got := placement.RackAware{}.Choose(topo, rng, 3)
	if len(got) != 3 || !distinct(got) {
		t.Fatalf("full-cluster placement: %v", got)
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	topo := cluster.MustHomogeneous(5, 1)
	p := &placement.RoundRobin{}
	if p.Name() != "round-robin" {
		t.Errorf("Name = %q", p.Name())
	}
	first := p.Choose(topo, nil, 3)
	second := p.Choose(topo, nil, 3)
	if first[0] != 0 || first[1] != 1 || first[2] != 2 {
		t.Errorf("first placement = %v", first)
	}
	if second[0] != 1 || second[1] != 2 || second[2] != 3 {
		t.Errorf("second placement = %v", second)
	}
	if !distinct(first) || !distinct(second) {
		t.Error("round-robin placements must be distinct")
	}
}
