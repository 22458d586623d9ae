package chaos

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"datanet/internal/shrink"
)

func TestGenClusterPlanAlwaysValid(t *testing.T) {
	p := DefaultClusterParams()
	for seed := uint64(1); seed <= 50; seed++ {
		plan := GenClusterPlan(seed, p)
		if err := ValidateClusterPlan(plan, p); err != nil {
			t.Fatalf("seed %d generated invalid plan: %v", seed, err)
		}
		if len(plan.Ops) == 0 {
			t.Fatalf("seed %d generated empty plan", seed)
		}
	}
}

func TestGenClusterPlanDeterministic(t *testing.T) {
	p := DefaultClusterParams()
	a := GenClusterPlan(42, p)
	b := GenClusterPlan(42, p)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same seed, different plans:\n%s\n%s", ja, jb)
	}
}

func TestClusterChaosCampaign(t *testing.T) {
	runs := 25
	if testing.Short() {
		runs = 8
	}
	rep := DefaultClusterParams().Campaign().Run(runs, 7)
	if len(rep.Violations) != 0 {
		for _, v := range rep.Violations {
			t.Error(v)
		}
		t.Fatalf("%d violations in %d runs", len(rep.Violations), rep.Runs)
	}
	if rep.Runs != runs {
		t.Fatalf("ran %d plans, want %d", rep.Runs, runs)
	}
	// The envelope should actually exercise faults, not just traffic.
	if rep.Census[OpCrash] == 0 || rep.Census[OpAppend] == 0 || rep.Census[OpRead] == 0 {
		t.Fatalf("campaign census too tame: %v", rep.Census)
	}
}

func TestClusterCheckSeedReplayable(t *testing.T) {
	p := DefaultClusterParams()
	plan := GenClusterPlan(3, p)
	v1, _ := CheckClusterPlan(3, plan, p)
	v2, _ := CheckClusterPlan(3, plan, p)
	if len(v1) != 0 || len(v2) != 0 {
		t.Fatalf("clean seed regressed: %v / %v", v1, v2)
	}
	r1 := runClusterPlan(3, plan, p)
	r2 := runClusterPlan(3, plan, p)
	if r1.digest != r2.digest {
		t.Fatalf("replay digests diverge: %x vs %x", r1.digest, r2.digest)
	}
}

func TestValidateClusterPlanRejectsIllegitimate(t *testing.T) {
	p := DefaultClusterParams()
	cases := []struct {
		name string
		plan ClusterPlan
	}{
		{"crash-burst", ClusterPlan{Seed: 1, Nodes: p.Nodes, Ops: []ClusterOp{
			{At: 1, Kind: OpCrash, Node: 0},
			{At: 2, Kind: OpCrash, Node: 1}, // within the repair window
		}}},
		{"crash-below-quorum", ClusterPlan{Seed: 1, Nodes: p.Nodes, Ops: []ClusterOp{
			{At: 1, Kind: OpCrash, Node: 0},
			{At: 20, Kind: OpCrash, Node: 1},
			{At: 40, Kind: OpCrash, Node: 2}, // would leave Replicas live
		}}},
		{"rejoin-of-up-node", ClusterPlan{Seed: 1, Nodes: p.Nodes, Ops: []ClusterOp{
			{At: 1, Kind: OpRejoin, Node: 0},
		}}},
		{"out-of-order", ClusterPlan{Seed: 1, Nodes: p.Nodes, Ops: []ClusterOp{
			{At: 5, Kind: OpRead, Array: 0},
			{At: 2, Kind: OpRead, Array: 0},
		}}},
	}
	for _, tc := range cases {
		if err := ValidateClusterPlan(&tc.plan, p); err == nil {
			t.Errorf("%s: validated but should be illegitimate", tc.name)
		}
	}
}

func TestClusterShrinkPassThrough(t *testing.T) {
	// A clean plan shrinks to itself: no invariant to reproduce.
	c := DefaultClusterParams().Campaign()
	got := c.Shrink(Violation{Seed: 5, Arm: clusterArm, Invariant: "no-lost-arrays"})
	if !reflect.DeepEqual(got, c.Gen(5)) {
		t.Fatalf("shrink altered a non-violating plan: %d -> %d ops", len(c.Gen(5).Ops), len(got.Ops))
	}
}

func TestClusterShrinkDropsNoise(t *testing.T) {
	// Synthetic failure: the invariant trips iff a specific append is
	// present, so shrinking through the cluster campaign's edits should
	// strip everything else while keeping candidates inside the legitimacy
	// envelope.
	p := DefaultClusterParams()
	plan := &ClusterPlan{Seed: 9, Nodes: p.Nodes, Ops: []ClusterOp{
		{At: 1, Kind: OpRead, Array: 0},
		{At: 2, Kind: OpAppend, Array: 3},
		{At: 3, Kind: OpCrash, Node: 1},
		{At: 4, Kind: OpRead, Array: 2},
		{At: 20, Kind: OpRejoin, Node: 1},
	}}
	fails := func(cand *ClusterPlan) bool {
		if ValidateClusterPlan(cand, p) != nil {
			return false
		}
		for _, op := range cand.Ops {
			if op.Kind == OpAppend && op.Array == 3 {
				return true
			}
		}
		return false
	}
	cur := shrink.Greedy(plan, clusterEdits, fails)
	if len(cur.Ops) != 1 || cur.Ops[0].Kind != OpAppend || cur.Ops[0].Array != 3 {
		t.Fatalf("shrink kept noise: %+v", cur.Ops)
	}
	if len(plan.Ops) != 5 {
		t.Fatalf("shrinking mutated its input plan: %+v", plan.Ops)
	}
}

// TestClusterCorpusRegression replays the checked-in corpus of plans that
// once looked interesting (crash-primary storms, decommission chains,
// crash+rejoin cycles). They must stay violation-free forever.
func TestClusterCorpusRegression(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "cluster_corpus.json"))
	if err != nil {
		t.Fatal(err)
	}
	var corpus []struct {
		Name string `json:"name"`
		// Params overrides fields of DefaultClusterParams by name.
		Params json.RawMessage `json:"params"`
		Plan   ClusterPlan     `json:"plan"`
	}
	if err := json.Unmarshal(blob, &corpus); err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("empty corpus")
	}
	for _, entry := range corpus {
		p := DefaultClusterParams()
		if err := json.Unmarshal(entry.Params, &p); err != nil {
			t.Fatalf("corpus %q: %v", entry.Name, err)
		}
		vs, _ := CheckClusterPlan(entry.Plan.Seed, &entry.Plan, p)
		for _, v := range vs {
			t.Errorf("corpus %q: %v", entry.Name, v)
		}
	}
}
