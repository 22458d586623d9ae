package sched

import (
	"errors"
	"strings"
	"testing"

	"datanet/internal/cluster"
)

func TestValidateWeights(t *testing.T) {
	if err := ValidateWeights([]int64{1, 0, 5}, 3); err != nil {
		t.Errorf("valid weights rejected: %v", err)
	}
	cases := []struct {
		name    string
		weights []int64
		blocks  int
	}{
		{"missing", nil, 3},
		{"short", []int64{1, 2}, 3},
		{"long", []int64{1, 2, 3, 4}, 3},
		{"negative", []int64{1, -2, 3}, 3},
	}
	for _, c := range cases {
		if err := ValidateWeights(c.weights, c.blocks); !errors.Is(err, ErrBadWeights) {
			t.Errorf("%s: err = %v, want ErrBadWeights", c.name, err)
		}
	}
}

func TestFallbackLocalityServesAndReports(t *testing.T) {
	topo := cluster.MustHomogeneous(4, 2)
	tasks := []Task{
		{Index: 0, Weight: 10, Bytes: 100, Locations: []cluster.NodeID{0, 1}},
		{Index: 1, Weight: 20, Bytes: 100, Locations: []cluster.NodeID{2, 3}},
	}
	p := NewFallbackLocality("elasticmap: corrupt encoding")(tasks, topo)
	name := p.Name()
	if !strings.Contains(name, "hadoop-locality") || !strings.Contains(name, "fallback") {
		t.Errorf("fallback name %q must identify both the policy and the degradation", name)
	}
	served := 0
	for p.Remaining() > 0 {
		if _, _, ok := p.Next(0); !ok {
			break
		}
		served++
	}
	if served != len(tasks) {
		t.Errorf("served %d tasks, want %d", served, len(tasks))
	}
}
