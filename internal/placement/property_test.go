package placement

import (
	"math/rand"
	"testing"

	"datanet/internal/cluster"
)

// The package contract, checked over randomized write-path requests for
// every policy: Choose returns min(want, N) distinct in-range nodes, and a
// fresh policy replaying the same seed makes the same choice.

// mkPolicy builds a fresh policy instance per call — RoundRobin carries
// cursor state, so reuse across determinism checks would alias it.
func mkPolicy(kind int) Policy {
	switch kind {
	case 0:
		return Random{}
	case 1:
		return RackAware{}
	default:
		return &RoundRobin{}
	}
}

const policyCount = 3

// checkChoice asserts the contract on one choice, and that a fresh policy
// of the same kind under the same seed repeats it.
func checkChoice(t *testing.T, kind int, topo *cluster.Topology, seed int64, want int) {
	t.Helper()
	p := mkPolicy(kind)
	out := p.Choose(topo, rand.New(rand.NewSource(seed)), want)
	if len(out) != min(want, topo.N()) {
		t.Fatalf("%s: chose %d of %d nodes, want %d", p.Name(), len(out), topo.N(), want)
	}
	seen := make(map[cluster.NodeID]bool, len(out))
	for _, id := range out {
		if seen[id] {
			t.Fatalf("%s: node %d chosen twice: %v", p.Name(), id, out)
		}
		seen[id] = true
		if id < 0 || int(id) >= topo.N() {
			t.Fatalf("%s: node %d outside [0,%d)", p.Name(), id, topo.N())
		}
	}
	again := mkPolicy(kind).Choose(topo, rand.New(rand.NewSource(seed)), want)
	if len(again) != len(out) {
		t.Fatalf("%s: replay chose %d nodes, want %d", p.Name(), len(again), len(out))
	}
	for i := range out {
		if out[i] != again[i] {
			t.Fatalf("%s: replay diverges at %d: %v vs %v", p.Name(), i, out, again)
		}
	}
}

func TestPolicyContractProperty(t *testing.T) {
	gen := rand.New(rand.NewSource(77))
	for trial := 0; trial < 400; trial++ {
		n := 2 + gen.Intn(11)
		topo := cluster.MustHomogeneous(n, 1+gen.Intn(3))
		checkChoice(t, trial%policyCount, topo, gen.Int63(), 1+gen.Intn(4))
	}
}

// FuzzPolicyChoose drives the contract from fuzzed bytes: node count, want
// and the policy selector come from the input, so the fuzzer explores
// one-node clusters and want larger than the cluster.
func FuzzPolicyChoose(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), uint8(0))
	f.Add(int64(2), uint8(4), uint8(4), uint8(1))
	f.Add(int64(3), uint8(6), uint8(2), uint8(2))
	f.Add(int64(4), uint8(1), uint8(1), uint8(1))
	f.Add(int64(5), uint8(12), uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n, want, kind uint8) {
		nodes := int(n%16) + 1
		topo := cluster.MustHomogeneous(nodes, nodes%3+1)
		checkChoice(t, int(kind)%policyCount, topo, seed, int(want%8)+1)
	})
}
