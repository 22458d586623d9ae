package chaos

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"datanet/internal/faults"
	"datanet/internal/mapreduce"
	"datanet/internal/shrink"
	"datanet/internal/trace"
)

// Every generated plan must pass the hardened faults.Plan.Validate: the
// generator guarantees one crash window per node and in-range factors.
func TestGenPlanAlwaysValid(t *testing.T) {
	p := DefaultParams()
	r := newRNG(99)
	for i := 0; i < 500; i++ {
		seed := r.next()
		plan := GenPlan(seed, 0.2, p)
		if err := plan.Validate(p.Nodes); err != nil {
			t.Fatalf("seed %d generated invalid plan: %v\n%+v", seed, err, plan)
		}
	}
}

func TestGenPlanDeterministic(t *testing.T) {
	p := DefaultParams()
	a := GenPlan(12345, 0.2, p)
	b := GenPlan(12345, 0.2, p)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n a: %+v\n b: %+v", a, b)
	}
}

// The composed campaign: every seed draws its whole policy bundle, so one
// run of the default fixture exercises the detectors, both mitigations
// and every partitioner together, all invariants armed, and
// must find zero violations. TestBundleDraw proves these seeds cover every
// axis value and the pairs the per-switch campaigns used to pin.
func TestChaosCampaignComposed(t *testing.T) {
	h, err := NewHarness(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c := h.Campaign()
	rep := c.Run(campaignRuns, campaignSeed)
	if rep.Runs != campaignRuns {
		t.Errorf("Runs = %d, want %d", rep.Runs, campaignRuns)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s\nplan: %+v", v, c.Gen(v.Seed))
	}
	// The campaign must actually have exercised faults, or zero
	// violations proves nothing.
	for _, kind := range []string{"crashes", "slowdowns", "read-error runs"} {
		if rep.Census[kind] == 0 {
			t.Errorf("campaign census has no %s: %s", kind, c.Summary(rep.Census))
		}
	}
}

// The campaign above and the pinned census run (`datanet chaos -runs 1000
// -seed 1`, cmd/datanet's TestRunChaosEngineGolden).
const (
	campaignRuns, campaignSeed = 150, 2
	smokeRuns, smokeSeed       = 1000, 1
)

// The bundle is a pure function of the seed, drawn from its own stream —
// the fault plan a seed generates is what it was before bundles existed —
// and both campaigns cover every value of every axis plus the pairs the
// seam bugs lived at: the oracle with each mitigation, and each mitigation
// with each partitioner.
func TestBundleDraw(t *testing.T) {
	sum := sha256.New()
	r := newRNG(99)
	for i := 0; i < 400; i++ {
		seed := r.next()
		if a, b := drawBundle(seed), drawBundle(seed); a != b {
			t.Fatalf("seed %d drew %v then %v", seed, a, b)
		}
		fmt.Fprintf(sum, "%+v\n", *GenPlan(seed, 0.2, DefaultParams()))
	}
	// Recorded at the commit before the bundle draw existed.
	const plans = "e867999617bbdeafcafd7262daa3f2940491d7a777053909f4e429c7f7326019"
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != plans {
		t.Errorf("plan corpus digest = %s, want %s", got, plans)
	}

	for _, c := range []struct {
		name string
		runs int
		seed uint64
	}{{"tier-1", campaignRuns, campaignSeed}, {"smoke", smokeRuns, smokeSeed}} {
		seen := map[string]bool{}
		r := newRNG(c.seed)
		for i := 0; i < c.runs; i++ {
			b := drawBundle(r.next())
			for a, v := range b.values() {
				seen[axes[a].name+"="+v] = true
			}
			seen[b.Detect.Mode.String()+"×"+b.Mitigate.Mode.String()] = true
			seen[b.Mitigate.Mode.String()+"×"+b.Partition.String()] = true
			if b.reducers < 1 || b.reducers > 13 {
				t.Fatalf("%s: reducer count %d out of range", c.name, b.reducers)
			}
		}
		for _, ax := range axes {
			for _, v := range ax.values {
				if !seen[ax.name+"="+v] {
					t.Errorf("%s campaign never draws %s=%s", c.name, ax.name, v)
				}
			}
		}
		for _, mit := range []string{"speculative", "coded"} {
			for _, with := range []string{"oracle", "hash", "skew", "range"} {
				if !seen[with+"×"+mit] && !seen[mit+"×"+with] {
					t.Errorf("%s campaign never composes %s with %s", c.name, mit, with)
				}
			}
		}
	}
}

// Every draw is the bundle its own analyze line parses to, so a reported
// seed's policy can be re-run with `datanet analyze`.
func TestDrawIsAPolicyLine(t *testing.T) {
	r := newRNG(smokeSeed)
	for i := 0; i < smokeRuns; i++ {
		b := drawBundle(r.next())
		var got mapreduce.Bundle
		if err := got.Set(b.Bundle.String()); err != nil || got != b.Bundle {
			t.Fatalf("Set(%q) = %+v, %v; want %+v", b.Bundle.String(), got, err, b.Bundle)
		}
	}
}

// mitigatedArm is the arm a mitigating, non-partitioning bundle adds to the
// three scheduler arms.
func mitigatedArm(b drawn) arm { return arms(b)[3] }

// pinned is a corpus seed's policy: the bundle its analyze line parses to,
// and the partition arm's reducer count.
func pinned(t *testing.T, line string, reducers int) drawn {
	t.Helper()
	b := drawn{reducers: reducers}
	if err := b.Set(line); err != nil {
		t.Fatal(err)
	}
	return b
}

// stragglerParams sizes a fixture whose filter tasks are scan-dominated,
// so hard slowdown plans create genuine stragglers and quantile backups
// actually launch (the default 2 KiB-block fixture is overhead-bound).
func stragglerParams() Params {
	p := DefaultParams()
	p.BlockSize = 1 << 18
	p.Records = 600
	p.PayloadBytes = 4096
	p.TaskOverhead = 0.001
	return p
}

// Corpus entry (mitigation × fault interplay): a node is slowed hard
// enough that quantile backups launch for its tasks, then several nodes —
// including whichever ones picked up the backups — crash mid-phase. The
// run must stay exactly-once, produce the baseline output, and uphold
// every harness invariant.
func TestMitigationCorpusBackupNodeCrash(t *testing.T) {
	h, err := NewHarness(stragglerParams())
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{
		Slow: []faults.Slowdown{{Node: 3, CPU: 0.05, Disk: 0.05}},
		// Crash after the first spec-check window (the scan runs every 2×
		// overhead = 2 ms), when backups for node 3's work are in flight on
		// surviving nodes.
		Crashes: []faults.Crash{
			{Node: 5, At: 0.004},
			{Node: 1, At: 0.006},
			{Node: 6, At: 0.008, RejoinAt: 0.2},
		},
	}
	b := pinned(t, "-detect heartbeat -hb-interval 0.02 -mitigate speculative", 0)
	for _, v := range h.check(77, plan, b) {
		t.Errorf("violation: %s", v)
	}
	// The plan must actually exercise the scenario, or the zero
	// violations above prove nothing: run the mitigated arm directly and
	// demand live backups plus exactly one surviving output per block.
	res, err := h.runArm(mitigatedArm(b), plan, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeculativeLaunches == 0 {
		t.Fatal("corpus plan launched no quantile backups")
	}
	if res.NodeCrashes == 0 {
		t.Fatal("corpus plan crashed no nodes")
	}
	live := map[int]int{}
	for _, st := range res.Tasks {
		if !st.Lost {
			live[st.Task.Index]++
		}
	}
	for idx, n := range live {
		if n != 1 {
			t.Errorf("block %d has %d surviving outputs, want 1", idx, n)
		}
	}
}

// Corpus: a falsely-suspected node running a coded parity unit after a
// crash dirtied the layout. Parity units have synthetic block ids, so
// the suspicion duplicate path must not ask HDFS for their replica
// locations — this exact seed once panicked with "block out of range"
// in the 200-run coded CLI smoke.
func TestMitigationCorpusSuspectedParityUnit(t *testing.T) {
	h, err := NewHarness(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const seed = 0x497305c5d1aab99f
	plan := GenPlan(seed, h.horizon, h.p)
	for _, v := range h.check(seed, plan, pinned(t, "-detect heartbeat -hb-interval 0.02 -mitigate coded", 0)) {
		t.Errorf("violation: %s", v)
	}
	if len(plan.Crashes) == 0 || len(plan.Slow) == 0 {
		t.Fatalf("corpus seed lost its crash+slowdown shape: %+v", plan)
	}
}

// Corpus: the seed behind the long-open oracle × speculative
// mitigation-no-new-failure report. No backup ever launches in it: the
// speculation scan's cadence wakes a parked slot one beat early, block 3's
// retries land on other (node, attempt) read-error draws than in the
// unmitigated run, and all four fail. Exhausting a block's own retries on
// transient read errors is the plan's luck, not the mitigation's doing —
// the harness must not report it, and must still see it for what it is.
func TestMitigationCorpusReadErrorReroll(t *testing.T) {
	h, err := NewHarness(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const seed = 6984485933356600607
	plan := GenPlan(seed, h.horizon, h.p)
	b := pinned(t, "-hb-interval 0.02 -mitigate speculative", 0)
	for _, v := range h.check(seed, plan, b) {
		t.Errorf("violation: %s", v)
	}
	if _, err := h.runArm(baseline, plan, b, nil); err != nil {
		t.Fatalf("corpus seed lost its shape: the baseline fails: %v", err)
	}
	_, err = h.runArm(mitigatedArm(b), plan, b, nil)
	if !errors.Is(err, mapreduce.ErrRetriesExhausted) || plan.Read.Prob == 0 {
		t.Fatalf("corpus seed lost its shape: mitigated run %v under read-error probability %g", err, plan.Read.Prob)
	}
}

// Corpus (analysis-phase recovery against belief): runs 351 and 348 of
// the pinned census run, `chaos -runs 1000 -seed 1`, each pinned with a literal
// bundle (heartbeat detector, coded mitigation) so a later change to the
// draw cannot reshape it. The filter kernel stops
// while a crashed node that has since rejoined is still suspected, and a
// later analysis-phase crash needs a helper to redo its share. Recovery
// used to pick by physics alone and handed the share to the suspected
// node; it must pick one the master believes live, as reducer placement
// always did.
func TestRecoveryCorpusSuspectedHelper(t *testing.T) {
	h, err := NewHarness(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		seed uint64
		line string
		reds int
	}{
		{18288763091816709512, "-detect heartbeat -hb-interval 0.02 -mitigate coded -partition range", 3},
		{12602372298903531417, "-detect heartbeat -hb-interval 0.02 -mitigate coded -partition skew", 9},
	} {
		t.Run(fmt.Sprint(c.seed), func(t *testing.T) {
			b := pinned(t, c.line, c.reds)
			plan := GenPlan(c.seed, h.horizon, h.p)
			for _, v := range h.check(c.seed, plan, b) {
				t.Errorf("violation: %s", v)
			}
			redone := false
			for _, a := range arms(b) {
				rec := trace.New()
				if _, err := h.runArm(a, plan, b, rec); err != nil {
					t.Fatalf("corpus seed lost its shape: %s arm: %v", a.name, err)
				}
				redone = redone || slices.ContainsFunc(rec.Events(), func(ev trace.Event) bool { return ev.Type == trace.EvAnalysisRecover })
			}
			if !redone {
				t.Fatal("corpus seed lost its shape: no analysis share was redone")
			}
		})
	}
}

// A seed's plan and verdict must be deterministic — the property that
// makes a reported seed replayable and the shrinker's predicate stable.
func TestCheckSeedReplayable(t *testing.T) {
	h, err := NewHarness(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c := h.Campaign()
	p1, p2 := c.Gen(7), c.Gen(7)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("Gen generated different plans for the same seed")
	}
	if v1, v2 := c.Check(7, p1, Census{}), c.Check(7, p2, Census{}); !reflect.DeepEqual(v1, v2) {
		t.Fatalf("Check verdicts diverge: %v vs %v", v1, v2)
	}
}

// planEntries counts the independent entries of a plan: crashes,
// slowdowns and the read-error clause.
func planEntries(p *faults.Plan) int {
	n := len(p.Crashes) + len(p.Slow)
	if p.Read.Prob > 0 {
		n++
	}
	return n
}

// The shrinker must reduce a seeded violating plan to a minimal
// counterexample through the engine campaign's edits. The engine
// currently upholds every invariant, so the "violation" here is a
// synthetic predicate with a known minimal core: a crash on node 3
// together with any read errors. Whatever else the seeded plan contains
// must be stripped.
func TestShrinkToMinimalCounterexample(t *testing.T) {
	p := DefaultParams()
	// Find a seeded plan that actually contains the core (plus noise).
	var plan *faults.Plan
	r := newRNG(5)
	for i := 0; i < 10000; i++ {
		cand := GenPlan(r.next(), 0.2, p)
		hasCrash3 := false
		for _, c := range cand.Crashes {
			if c.Node == 3 {
				hasCrash3 = true
			}
		}
		if hasCrash3 && cand.Read.Prob > 0 && planEntries(cand) >= 4 {
			plan = cand
			break
		}
	}
	if plan == nil {
		t.Fatal("no seed produced a plan with the synthetic core plus noise")
	}
	fails := func(q *faults.Plan) bool {
		if q.Read.Prob <= 0 {
			return false
		}
		for _, c := range q.Crashes {
			if c.Node == 3 {
				return true
			}
		}
		return false
	}
	calls := 0
	min := shrink.Greedy(plan, PlanEdits, func(q *faults.Plan) bool { calls++; return fails(q) })
	if !fails(min) {
		t.Fatal("shrunk plan no longer fails")
	}
	if n := planEntries(min); n > 2 {
		t.Errorf("shrunk plan has %d entries, want ≤2: %+v", n, min)
	}
	if len(min.Crashes) != 1 || min.Crashes[0].Node != 3 {
		t.Errorf("shrunk crashes = %+v, want exactly the node-3 crash", min.Crashes)
	}
	if min.Crashes[0].RejoinAt != 0 {
		t.Errorf("shrinker kept an unnecessary rejoin: %+v", min.Crashes[0])
	}
	if min.Read.Prob <= 0 {
		t.Error("shrinker dropped the necessary read-error clause")
	}
	if calls == 0 {
		t.Error("predicate never invoked")
	}
	// The original plan must be untouched (the edits build fresh plans).
	if planEntries(plan) < 4 {
		t.Error("shrinking mutated its input plan")
	}
}

// The engine campaign's Shrink of a violation its seed's plan does not
// reproduce returns that plan as generated.
func TestShrinkPassThrough(t *testing.T) {
	h, err := NewHarness(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c := h.Campaign()
	got := c.Shrink(Violation{Seed: 1, Arm: "datanet", Invariant: "records-lost"})
	if !reflect.DeepEqual(got, c.Gen(1)) {
		t.Errorf("Shrink of a non-failing plan = %+v, want the generated plan %+v", got, c.Gen(1))
	}
}

func TestRNGStability(t *testing.T) {
	// splitmix64 known-answer test: the stream is part of the replay
	// contract, so a refactor that changes it must fail loudly.
	r := newRNG(1)
	want := []uint64{0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e}
	for i, w := range want {
		if got := r.next(); got != w {
			t.Fatalf("next()[%d] = %#x, want %#x", i, got, w)
		}
	}
}
