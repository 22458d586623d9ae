package sched

import (
	"strings"
	"testing"

	"datanet/internal/cluster"
	"datanet/internal/hdfs"
)

// auditTasks builds two tasks both replicated on node 0 only, so node 0
// serves local and node 1 is forced remote.
func auditTasks() []Task {
	return []Task{
		{Block: hdfs.BlockID(0), Index: 0, Weight: 100, Bytes: 1 << 18,
			Locations: []cluster.NodeID{0}},
		{Block: hdfs.BlockID(1), Index: 1, Weight: 50, Bytes: 1 << 18,
			Locations: []cluster.NodeID{0}},
	}
}

func TestExplainLocalityPicker(t *testing.T) {
	topo := cluster.MustHomogeneous(2, 1)
	p := NewLocalityPicker(auditTasks(), topo)
	if _, rule, ok := p.Next(0); !ok || rule != "locality.local-fifo" {
		t.Fatalf("local pull: ok=%v rule=%q", ok, rule)
	}
	if _, rule, ok := p.Next(1); !ok || rule != "locality.remote-fifo" {
		t.Fatalf("remote pull: ok=%v rule=%q", ok, rule)
	}
}

func TestExplainDataNetPicker(t *testing.T) {
	topo := cluster.MustHomogeneous(2, 1)
	p := NewDataNetPicker(auditTasks(), topo)
	// Node 0 holds all replicas; the planner puts its work there (or
	// line-12-assists one task away) and node 1 can only steal.
	if _, rule, ok := p.Next(0); !ok || !strings.HasPrefix(rule, "algo1.") {
		t.Fatalf("planned pull: ok=%v rule=%q", ok, rule)
	}
	if _, rule, ok := p.Next(1); !ok || !strings.HasPrefix(rule, "algo1.") {
		t.Fatalf("second pull: ok=%v rule=%q", ok, rule)
	}
}

func TestExplainDataNetStealRules(t *testing.T) {
	topo := cluster.MustHomogeneous(2, 1)
	p := NewDataNetPicker(auditTasks(), topo)
	// Drain node 0's queue through node 1 first: every pull from node 1 is
	// a steal, and node 1 holds no replicas, so the rule is steal-global.
	if _, rule, ok := p.Next(1); !ok || rule != "algo1.steal-global" {
		t.Fatalf("off-replica steal: ok=%v rule=%q", ok, rule)
	}
}

func TestExplainFallbackPrefixesRule(t *testing.T) {
	topo := cluster.MustHomogeneous(2, 1)
	p := NewFallbackLocality("meta corrupt")(auditTasks(), topo)
	if _, rule, ok := p.Next(0); !ok || rule != "fallback.locality.local-fifo" {
		t.Fatalf("fallback rule = %q (ok=%v)", rule, ok)
	}
}

func TestExplainLPTAndRandomPickers(t *testing.T) {
	topo := cluster.MustHomogeneous(2, 1)
	for _, tc := range []struct {
		factory Factory
		prefix  string
	}{
		{NewLPTPicker, "lpt."},
		{NewRandomPicker(7), "random."},
	} {
		p := tc.factory(auditTasks(), topo)
		if _, rule, ok := p.Next(0); !ok || !strings.HasPrefix(rule, tc.prefix) {
			t.Fatalf("%s picker rule = %q (ok=%v)", tc.prefix, rule, ok)
		}
	}
}
