package placement

import (
	"errors"
	"math/rand"
	"testing"

	"datanet/internal/cluster"
)

// The package contract, checked over randomized inputs for every policy:
// chosen nodes are distinct, never repeat Request.Have, never land on a
// vetoed node, and identical inputs produce identical choices.

// mkPolicy builds a fresh policy instance per call — RoundRobin carries
// cursor state, so reuse across determinism checks would alias it.
func mkPolicy(kind int) Policy {
	switch kind {
	case 0:
		return Random{}
	case 1:
		return RackAware{}
	case 2:
		return &RoundRobin{}
	case 3:
		return LeastUsed{}
	default:
		return Rendezvous{Shard: 5}
	}
}

var policyKinds = []string{"random", "rack-aware", "round-robin", "least-used", "rendezvous"}

// checkChoice asserts the policy contract on one Choose outcome. Returns
// the number of eligible nodes for Want-sufficiency checks.
func checkChoice(t *testing.T, label string, req Request, out []cluster.NodeID, err error) {
	t.Helper()
	eligible := 0
	for _, id := range req.universe() {
		if req.eligible(id) {
			eligible++
		}
	}
	if err != nil {
		if !errors.Is(err, ErrNotEnough) {
			t.Fatalf("%s: unexpected error %v", label, err)
		}
		if req.Partial {
			t.Fatalf("%s: partial request returned ErrNotEnough", label)
		}
		if eligible >= req.Want {
			t.Fatalf("%s: ErrNotEnough with %d eligible >= want %d", label, eligible, req.Want)
		}
		return
	}
	want := req.Want
	if eligible < want {
		want = eligible
	}
	if len(out) != want {
		t.Fatalf("%s: chose %d nodes, want %d (eligible %d)", label, len(out), want, eligible)
	}
	seen := make(map[cluster.NodeID]bool, len(out))
	inUniverse := make(map[cluster.NodeID]bool)
	for _, id := range req.universe() {
		inUniverse[id] = true
	}
	for _, id := range out {
		if seen[id] {
			t.Fatalf("%s: node %d chosen twice", label, id)
		}
		seen[id] = true
		if !inUniverse[id] {
			t.Fatalf("%s: node %d outside the universe", label, id)
		}
		for _, h := range req.Have {
			if h == id {
				t.Fatalf("%s: node %d already holds a replica (co-location)", label, id)
			}
		}
		if req.Veto != nil && req.Veto(id) != VetoNone {
			t.Fatalf("%s: vetoed node %d chosen (%s)", label, id, req.Veto(id))
		}
	}
}

// genRequest derives a randomized request from the trial RNG. The
// returned request owns a fresh deterministic RNG so a second identical
// request replays the same draws.
func genRequest(gen *rand.Rand, topo *cluster.Topology) (Request, int64) {
	n := topo.N()
	seed := gen.Int63()
	req := Request{
		Topo:    topo,
		Want:    1 + gen.Intn(4),
		Partial: gen.Intn(2) == 0,
	}
	for id := 0; id < n; id++ {
		if gen.Intn(5) == 0 {
			req.Have = append(req.Have, cluster.NodeID(id))
		}
	}
	vetoed := make(map[cluster.NodeID]VetoReason)
	for id := 0; id < n; id++ {
		switch gen.Intn(6) {
		case 0:
			vetoed[cluster.NodeID(id)] = VetoDead
		case 1:
			vetoed[cluster.NodeID(id)] = VetoDecommissioned
		}
	}
	if len(vetoed) > 0 {
		req.Veto = func(id cluster.NodeID) VetoReason { return vetoed[id] }
	}
	req.Usage = make(map[cluster.NodeID]int64, n)
	for id := 0; id < n; id++ {
		req.Usage[cluster.NodeID(id)] = int64(gen.Intn(1 << 20))
	}
	return req, seed
}

func TestPolicyContractProperty(t *testing.T) {
	gen := rand.New(rand.NewSource(77))
	for trial := 0; trial < 400; trial++ {
		n := 2 + gen.Intn(11)
		racks := 1 + gen.Intn(3)
		topo := cluster.MustHomogeneous(n, racks)
		kind := trial % len(policyKinds)
		req, seed := genRequest(gen, topo)
		req.RNG = rand.New(rand.NewSource(seed))
		out, err := mkPolicy(kind).Choose(req)
		checkChoice(t, policyKinds[kind], req, out, err)

		// Determinism: a fresh policy with identically seeded RNG must
		// repeat the choice exactly.
		req2 := req
		req2.RNG = rand.New(rand.NewSource(seed))
		out2, err2 := mkPolicy(kind).Choose(req2)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("%s: errors diverge on replay: %v vs %v", policyKinds[kind], err, err2)
		}
		if len(out) != len(out2) {
			t.Fatalf("%s: replay chose %d nodes, want %d", policyKinds[kind], len(out2), len(out))
		}
		for i := range out {
			if out[i] != out2[i] {
				t.Fatalf("%s: replay diverges at %d: %v vs %v", policyKinds[kind], i, out, out2)
			}
		}
	}
}

// FuzzPolicyChoose drives the policy contract from fuzzed bytes: node
// count, want, have/veto bitmasks and the policy selector all come from
// the input, so the fuzzer explores degenerate universes (everything
// vetoed, Have covering the cluster, want larger than the universe).
func FuzzPolicyChoose(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), uint16(0), uint16(0), uint8(0))
	f.Add(int64(2), uint8(4), uint8(4), uint16(0xF), uint16(0), uint8(1))
	f.Add(int64(3), uint8(6), uint8(2), uint16(0), uint16(0x3F), uint8(2))
	f.Add(int64(4), uint8(1), uint8(1), uint16(1), uint16(1), uint8(3))
	f.Add(int64(5), uint8(12), uint8(5), uint16(0xAAAA), uint16(0x5555), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n, want uint8, haveMask, vetoMask uint16, kind uint8) {
		nodes := int(n%16) + 1
		topo := cluster.MustHomogeneous(nodes, nodes%3+1)
		req := Request{
			Topo:    topo,
			RNG:     rand.New(rand.NewSource(seed)),
			Want:    int(want%8) + 1,
			Partial: seed%2 == 0,
		}
		for id := 0; id < nodes && id < 16; id++ {
			if haveMask&(1<<id) != 0 {
				req.Have = append(req.Have, cluster.NodeID(id))
			}
		}
		if vetoMask != 0 {
			req.Veto = func(id cluster.NodeID) VetoReason {
				if id >= 0 && id < 16 && vetoMask&(1<<id) != 0 {
					return VetoDead
				}
				return VetoNone
			}
		}
		out, err := mkPolicy(int(kind) % 5).Choose(req)
		checkChoice(t, policyKinds[int(kind)%5], req, out, err)
	})
}
