// Package chaos is a randomized robustness harness for the simulated
// MapReduce engine: from one seed it derives a reproducible fault plan
// (crashes, rejoins, degraded hardware, transient read errors) and a
// policy bundle (failure detector, straggler mitigation, reduce
// partitioning), runs every scheduler arm under both, and checks
// execution invariants that must hold no matter what the plan did — no
// records silently lost, workload conserved, phase timestamps monotonic,
// runs bit-identical on replay, makespan bounded relative to the healthy
// run, and no work placed on a node the master believed dead. The same
// generic campaign (see campaign.go) also checks the sharded metadata
// cluster (see cluster.go). A violating seed is a bug; the campaign's shrinker
// reduces its plan to a minimal counterexample before a human ever looks
// at it.
package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"strings"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/detect"
	"datanet/internal/faults"
	"datanet/internal/hdfs"
	"datanet/internal/mapreduce"
	"datanet/internal/partition"
	"datanet/internal/records"
	"datanet/internal/sched"
	"datanet/internal/straggle"
	"datanet/internal/trace"
)

// Params sizes the chaos fixture and bounds the generated fault plans.
// The policies a run executes under are not parameters: every seed draws
// its own bundle (see drawBundle).
type Params struct {
	// Nodes, Racks, BlockSize and Records size the cluster and dataset.
	Nodes, Racks int
	BlockSize    int64
	Records      int
	// MaxCrashes and MaxSlow cap the plan's crash and slowdown entries.
	MaxCrashes, MaxSlow int
	// RejoinProb is the chance a crash rejoins; MaxReadErrProb caps the
	// transient read-error probability.
	RejoinProb, MaxReadErrProb float64
	// MakespanBound and SlackSeconds bound a faulted run's job time:
	// JobTime ≤ healthy × MakespanBound + SlackSeconds. The additive term
	// absorbs fixed costs (detection timeouts, retry backoff) that dwarf
	// this small fixture's sub-second healthy makespan.
	MakespanBound, SlackSeconds float64
	// PayloadBytes overrides the fixture's per-record payload size and
	// TaskOverhead the engine's fixed per-task cost (zero = defaults).
	// Together they let a mitigation campaign build a scan-dominated
	// fixture where slowdown plans produce genuine stragglers; the
	// default fixture's 2 KiB blocks are overhead-dominated.
	PayloadBytes int
	TaskOverhead float64
}

// DefaultParams is the CI-sized configuration: an 8-node fixture small
// enough that a thousand seeds run in seconds.
func DefaultParams() Params {
	return Params{
		Nodes: 8, Racks: 2, BlockSize: 2048, Records: 800,
		MaxCrashes: 2, MaxSlow: 2, RejoinProb: 0.5, MaxReadErrProb: 0.15,
		MakespanBound: 50, SlackSeconds: 10,
	}
}

// beatInterval is the heartbeat period the detector modes run at.
const beatInterval = 0.02

// drawn is the policy every arm of one seed runs under: the bundle's
// failure detector, its straggler mitigation (adds the mitigated arm and
// its invariants) and its reduce partitioner (adds the partition arm,
// which inherits the mitigation, runs with `reducers` reduce tasks and
// must reproduce the partitioning-off output byte for byte). The reducer
// count and the retry policy are drawn beside the bundle: no analyze flag
// spells them.
type drawn struct {
	mapreduce.Bundle
	reducers int
	retry    faults.RetryPolicy
}

// axes names the bundle's policy axes in draw order, each with every
// value it can take — the policy packages' own mode lists.
var axes = [...]struct {
	name   string
	values []string
}{
	{"detect", names(detect.Modes)},
	{"mitigate", names(straggle.Modes)},
	{"partition", names(partition.Modes)},
}

func names[T fmt.Stringer](modes []T) []string {
	out := make([]string, len(modes))
	for i, m := range modes {
		out[i] = m.String()
	}
	return out
}

// bundleStream separates the bundle's hash stream from GenPlan's, so the
// bundle draw never disturbs the fault plan a seed has always produced.
const bundleStream = 0x62756e646c65 // "bundle"

// drawBundle derives the seed's policy — a pure function of the seed, so
// a violation replays from the seed alone. Every axis is drawn uniformly,
// in axes order, into the bundle `-sched locality -detect D -hb-interval
// 0.02 -mitigate M -partition P` parses to; each arm sets its scheduler.
func drawBundle(seed uint64) drawn {
	r := newRNG(seed ^ bundleStream)
	var b drawn
	b.Detect = detect.Config{Mode: draw(r, detect.Modes), Interval: beatInterval}
	b.Mitigate = straggle.Config{Mode: draw(r, straggle.Modes)}.WithDefaults()
	b.Partition = draw(r, partition.Modes)
	// Partition independence must hold at any reducer width, not just the
	// default one-per-node.
	b.reducers = 1 + r.intn(13)
	// A first backoff of 0.01–0.5 s under the default attempt cap, so
	// retries run and mature while the plan's crashes still land (the
	// default 0.5 s backoff outlasts this fixture's whole job).
	b.retry = faults.RetryPolicy{Backoff: 0.01 * float64(1+r.intn(50))}
	return b
}

func draw[T any](r *rng, values []T) T { return values[r.intn(len(values))] }

func (b drawn) values() [len(axes)]string {
	return [len(axes)]string{b.Detect.Mode.String(), b.Mitigate.Mode.String(), b.Partition.String()}
}

func (b drawn) String() string {
	return fmt.Sprintf("detect=%s mitigate=%s partition=%s/%d backoff=%g",
		b.Detect.Mode, b.Mitigate.Mode, b.Partition, b.reducers, b.retry.Backoff)
}

// Harness holds the precomputed fixture — the written filesystem (every
// run gets a Clone: crashes mutate replica placement), its per-block map
// output, the healthy reference result of every arm any bundle can select
// and the ground-truth scheduling weights — so each seed only pays for its
// own faulted simulations.
type Harness struct {
	p       Params
	fs      *hdfs.FileSystem
	out     *mapreduce.MapOutput
	weights []int64
	healthy map[arm]*mapreduce.Result
	horizon float64
}

// arm is one engine configuration a seed's plan runs under: a policy
// bundle whose detector the seed's draw overrides, and barrier adds
// Hadoop's analysis-barrier backups. Arms are comparable: an arm is its
// own key into the healthy references.
type arm struct {
	name    string
	barrier bool
	policy  mapreduce.Bundle
}

var baseline = arm{name: "hadoop-locality", policy: mapreduce.Bundle{Sched: sched.Locality, Partition: partition.ModeOff}}

// arms lists the arms a draw runs: the three scheduler arms, the
// mitigated arm when the draw mitigates, and the partition arm when it
// partitions — under DataNet scheduling and inheriting the mitigation, so
// independence must survive speculative backups and coded recovery, not
// just plain crash/slowdown plans.
func arms(b drawn) []arm {
	out := []arm{
		baseline,
		{name: "datanet", policy: mapreduce.Bundle{Sched: sched.DataNet, Partition: partition.ModeOff}},
		{name: "speculative", barrier: true, policy: baseline.policy},
	}
	if b.Mitigate.Enabled() {
		out = append(out, arm{name: "mitigate-" + b.Mitigate.Mode.String(),
			policy: mapreduce.Bundle{Sched: sched.Locality, Mitigate: b.Mitigate, Partition: partition.ModeOff}})
	}
	if b.Partition != partition.ModeOff {
		out = append(out, arm{name: "partition-" + b.Partition.String(),
			policy: mapreduce.Bundle{Sched: sched.DataNet, Mitigate: b.Mitigate, Partition: b.Partition}})
	}
	return out
}

// chaosFS builds the fixture filesystem.
func chaosFS(p Params) (*hdfs.FileSystem, error) {
	topo, err := cluster.NewHomogeneous(p.Nodes, p.Racks)
	if err != nil {
		return nil, err
	}
	fs, err := hdfs.NewFileSystem(topo, hdfs.Config{BlockSize: p.BlockSize, Replication: 3, Seed: 7})
	if err != nil {
		return nil, err
	}
	payload := strings.Repeat("w ", 20)
	if p.PayloadBytes > 0 {
		payload = strings.Repeat("x", p.PayloadBytes)
	}
	var recs []records.Record
	for i := 0; i < p.Records; i++ {
		sub := fmt.Sprintf("bg-%d", i%9)
		if i%4 == 0 {
			sub = "movie-A"
		}
		recs = append(recs, records.Record{
			Sub:     sub,
			Time:    int64(i),
			Rating:  3,
			Payload: payload,
		})
	}
	if _, err := fs.Write("log", recs); err != nil {
		return nil, err
	}
	return fs, nil
}

// NewHarness builds the fixture and runs the fault-free reference of
// every arm any bundle can select.
func NewHarness(p Params) (*Harness, error) {
	h := &Harness{p: p, healthy: map[arm]*mapreduce.Result{}}

	var err error
	if h.fs, err = chaosFS(p); err != nil {
		return nil, err
	}
	if h.out, err = mapreduce.MapFile(h.fs, "log", apps.WordCount{}, "movie-A"); err != nil {
		return nil, err
	}
	// Ground-truth weights for the DataNet arm, from the block split.
	blocks, err := h.fs.Blocks("log")
	if err != nil {
		return nil, err
	}
	h.weights = make([]int64, len(blocks))
	for i, b := range blocks {
		for _, r := range b.Records {
			if r.Sub == "movie-A" {
				h.weights[i] += r.Size()
			}
		}
	}

	for _, mit := range straggle.Modes {
		for _, part := range partition.Modes {
			b := drawn{Bundle: mapreduce.Bundle{Mitigate: straggle.Config{Mode: mit}.WithDefaults(), Partition: part}}
			for _, a := range arms(b) {
				if h.healthy[a] != nil {
					continue
				}
				res, err := h.runArm(a, nil, drawn{}, nil)
				if err != nil {
					return nil, fmt.Errorf("chaos: healthy reference (%s): %w", a.name, err)
				}
				h.healthy[a] = res
			}
		}
	}
	// Every policy must be output-transparent even before any fault is
	// injected: scheduling, redundancy and partitioning may change the
	// schedule, never the answer.
	for a, res := range h.healthy {
		if !reflect.DeepEqual(res.Output, h.healthy[baseline].Output) {
			return nil, fmt.Errorf("chaos: healthy %s (%s) output diverges from the baseline", a.name, a.policy)
		}
	}
	h.horizon = h.healthy[baseline].FilterEnd
	return h, nil
}

// Campaign is the engine campaign on the harness's fixture: every seed
// draws a fault plan and a policy bundle and runs every arm of the bundle.
func (h *Harness) Campaign() *Campaign[*faults.Plan] {
	return &Campaign[*faults.Plan]{
		Gen: func(seed uint64) *faults.Plan { return GenPlan(seed, h.horizon, h.p) },
		Check: func(seed uint64, plan *faults.Plan, census Census) []Violation {
			b := drawBundle(seed)
			census["crashes"] += len(plan.Crashes)
			census["slowdowns"] += len(plan.Slow)
			if plan.Read.Prob > 0 {
				census["read-error runs"]++
			}
			for a, v := range b.values() {
				census[axes[a].name+"="+v]++
			}
			return h.check(seed, plan, b)
		},
		Edits:   PlanEdits,
		Summary: engineSummary,
	}
}

// engineSummary renders the plan census, then every value of every policy
// axis in axis order, so a value the campaign never drew shows as a zero.
func engineSummary(c Census) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "runs (%d crashes, %d slowdowns, %d read-error runs",
		c["crashes"], c["slowdowns"], c["read-error runs"])
	for _, ax := range axes {
		sb.WriteString("; " + ax.name)
		for _, v := range ax.values {
			fmt.Fprintf(&sb, " %s=%d", v, c[ax.name+"="+v])
		}
	}
	return sb.String() + ")"
}

// typedFailure reports whether err is one of the engine's declared
// failure modes — outcomes the invariants permit (data genuinely lost,
// retries exhausted, cluster dead), as opposed to silent corruption.
func typedFailure(err error) bool {
	return errors.Is(err, mapreduce.ErrDataLost) ||
		errors.Is(err, mapreduce.ErrRetriesExhausted) ||
		errors.Is(err, mapreduce.ErrNoLiveNodes)
}

// runArm executes the plan under one arm of the draw on a fresh clone of
// the fixture; a nil plan and the zero draw give the healthy reference.
// The range sampler's seed is fixed so replays are bit-identical. rec,
// when non-nil, receives the run's timeline.
func (h *Harness) runArm(a arm, plan *faults.Plan, b drawn, rec *trace.Recorder) (*mapreduce.Result, error) {
	cfg := mapreduce.Config{
		FS: h.fs.Clone(), File: "log", TargetSub: "movie-A", App: apps.WordCount{},
		ExecuteApp: true, MapOutput: h.out, TaskOverhead: h.p.TaskOverhead,
		Speculative: a.barrier, Faults: plan, Trace: rec,
	}
	a.policy.Apply(&cfg)
	cfg.Detect, cfg.Retry, cfg.Partition.Seed = b.Detect, b.retry, 20160523
	if a.policy.Sched == sched.DataNet {
		cfg.Weights = h.weights
	}
	if a.policy.Partition != partition.ModeOff {
		cfg.Reducers = b.reducers
	}
	return mapreduce.Run(cfg)
}

// check runs one fault plan under every arm of the bundle (twice each,
// for the replay invariant) and returns every invariant breach.
func (h *Harness) check(seed uint64, plan *faults.Plan, b drawn) []Violation {
	var out []Violation
	fail := func(sched, inv, format string, args ...any) {
		out = append(out, Violation{
			Seed: seed, Arm: sched + " [" + b.String() + "]", Invariant: inv,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	if err := plan.Validate(h.p.Nodes); err != nil {
		fail("-", "plan-validate", "generated plan invalid: %v", err)
		return out
	}
	inj, _ := faults.NewInjector(plan, h.p.Nodes) // validated above
	var baseErr error
	for _, a := range arms(b) {
		// The mitigated arm proper: the partition arm inherits the mitigation
		// but runs under another scheduler, so the locality baseline is not
		// its counterfactual.
		mitigated := a.policy.Mitigate.Enabled() && a.policy.Partition == partition.ModeOff
		rec := trace.New()
		res, err := h.runArm(a, plan, b, rec)
		res2, err2 := h.runArm(a, plan, b, nil)
		if a == baseline {
			baseErr = err
		}
		if ev, ok := actedOnBelievedDead(rec.Events(), inj, b.Detect.Mode == detect.Oracle); ok {
			fail(a.name, "acted-on-believed-dead", "%s at t=%g (seq %d) on node %d", ev.Type, ev.T, ev.Seq, ev.Node)
		}

		// Replay: identical (seed, plan, config) must reproduce the run
		// bit for bit — errors included.
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			fail(a.name, "replay", "errors diverge across replays: %v vs %v", err, err2)
			continue
		}
		if err == nil && !reflect.DeepEqual(res, res2) {
			fail(a.name, "replay", "results diverge across identical replays")
			continue
		}
		if err != nil {
			if !typedFailure(err) {
				fail(a.name, "typed-error", "untyped failure: %v", err)
			}
			// A straggler mitigation must never turn a survivable plan into
			// a failure: if the unmitigated baseline finished, the mitigated
			// run has strictly more ways to finish. The one exception is a
			// block exhausting its own retries on transient read errors:
			// each attempt's outcome is a draw keyed by (block, node,
			// attempt), any change of schedule re-rolls them, and backups
			// never spend that budget — the same bad luck the baseline is
			// exposed to, not a failure the mitigation introduced.
			badLuck := plan.Read.Prob > 0 && errors.Is(err, mapreduce.ErrRetriesExhausted)
			if mitigated && baseErr == nil && !badLuck {
				fail(a.name, "mitigation-no-new-failure",
					"baseline succeeded but mitigated run failed: %v", err)
			}
			continue
		}

		healthy := h.healthy[a]
		// No records lost: a run that claims success must produce the
		// fault-free output. On the partition arm that is partition
		// independence — the partitioning-off baseline's merged output byte
		// for byte, since NewHarness proved every healthy output equal.
		lost := "records-lost"
		if a.policy.Partition != partition.ModeOff {
			lost = "partition-independence"
		}
		if !reflect.DeepEqual(res.Output, healthy.Output) {
			fail(a.name, lost, "output diverges from fault-free run (%d vs %d keys)",
				len(res.Output), len(healthy.Output))
		}
		// Exactly-once commit: every block has at most one surviving filter
		// output, whatever was retried, duplicated or decoded along the way.
		if dup := duplicateLiveBlocks(res); len(dup) > 0 {
			fail(a.name, "unique-live-stat", "blocks with more than one live output: %v", dup)
		}
		// Workload conservation: recovery may move filtered bytes between
		// nodes but never create or destroy them.
		var want, got int64
		for _, w := range healthy.NodeWorkload {
			want += w
		}
		for _, w := range res.NodeWorkload {
			got += w
		}
		if want != got {
			fail(a.name, "workload-conservation", "filtered bytes %d, want %d", got, want)
		}
		// Phase timestamps must stay monotonic under any fault schedule.
		if !(res.FilterEnd > 0 &&
			res.FirstMapEnd >= res.FilterEnd &&
			res.MapEnd >= res.FirstMapEnd &&
			res.ShuffleEnd >= res.MapEnd &&
			res.ReduceEnd >= res.ShuffleEnd &&
			res.JobTime == res.ReduceEnd) {
			fail(a.name, "phase-monotonic",
				"filter=%g firstMap=%g map=%g shuffle=%g reduce=%g job=%g",
				res.FilterEnd, res.FirstMapEnd, res.MapEnd, res.ShuffleEnd, res.ReduceEnd, res.JobTime)
		}
		// Detection latencies are gaps between a crash and its response:
		// they cannot be negative, and under a non-oracle detector they
		// cannot be zero.
		for _, l := range res.DetectionLatency {
			if l < 0 || (b.Detect.Mode != detect.Oracle && l == 0) {
				fail(a.name, "detect-latency", "latency %g out of range", l)
			}
		}
		// A successful run must finish in bounded time relative to the
		// healthy run — a "recovered" job that took forever is a hang.
		bound := healthy.JobTime*h.p.MakespanBound + h.p.SlackSeconds
		if res.JobTime > bound {
			fail(a.name, "makespan-bound", "job time %g exceeds %g (healthy %g)",
				res.JobTime, bound, healthy.JobTime)
		}
		// Shuffle-byte conservation: the per-reducer attribution must sum
		// exactly to the total that crossed the network, on every arm.
		var perReducer int64
		for _, n := range res.ShuffleBytesPerReducer {
			perReducer += n
		}
		if perReducer != res.ShuffleBytes {
			fail(a.name, "shuffle-conservation", "per-reducer bytes sum %d, ShuffleBytes %d",
				perReducer, res.ShuffleBytes)
		}
		// A key-aware arm must report the strategy the bundle asked for.
		if part := a.policy.Partition; part != partition.ModeOff && res.PartitionName != part.String() {
			fail(a.name, "partition-independence", "run reports partitioner %q, want %q",
				res.PartitionName, part)
		}
		// Mitigated arm: work amplification stays within the declared
		// budget — the launch cap for speculation, the fixed parity
		// layout for coding (faults must never inflate redundancy).
		if mitigated {
			switch a.policy.Mitigate.Mode {
			case straggle.ModeSpeculative:
				budget := len(healthy.Tasks) / 4
				if budget < 1 {
					budget = 1
				}
				if res.SpeculativeLaunches > budget {
					fail(a.name, "mitigation-budget", "%d backups launched, budget %d",
						res.SpeculativeLaunches, budget)
				}
			case straggle.ModeCoded:
				if res.CodedGroups != healthy.CodedGroups || res.CodedParityUnits != healthy.CodedParityUnits {
					fail(a.name, "mitigation-budget", "coded layout %d groups / %d parity, healthy %d / %d",
						res.CodedGroups, res.CodedParityUnits, healthy.CodedGroups, healthy.CodedParityUnits)
				}
			}
		}
	}
	return out
}

// actedOnBelievedDead finds the first action in a run's timeline that
// lands on a node the master believed dead when it acted: a task attempt
// starting (first try, retry or backup), a crashed node's analysis share
// redone, a reducer's shuffle or reduce span. Under a detector the belief
// is the trace's own: a node.suspect earlier in the timeline with no
// node.clear since. Under the oracle the master believes physics, so the
// belief is the plan's DeadAt at the instant it acted — a start's own
// instant, the crash that triggered a redo (the helper may die later and
// be recovered in turn), and the map-end barrier where reducers are placed
// (a shuffle span is drawn from the earlier first map end).
func actedOnBelievedDead(evs []trace.Event, inj *faults.Injector, oracle bool) (trace.Event, bool) {
	suspected := map[int]bool{}
	var crashAt, mapEnd float64
	for _, ev := range evs {
		at := ev.T
		switch ev.Type {
		case trace.EvNodeSuspect, trace.EvNodeClear:
			suspected[ev.Node] = ev.Type == trace.EvNodeSuspect
			continue
		case trace.EvNodeCrash:
			crashAt = ev.T
			continue
		case trace.EvPhase:
			if ev.Detail == "map-end" {
				mapEnd = ev.T
			}
			continue
		case trace.EvTaskStart:
		case trace.EvAnalysisRecover:
			at = crashAt
		case trace.EvShuffleSpan, trace.EvReduceSpan:
			at = mapEnd
		default:
			continue
		}
		if suspected[ev.Node] || oracle && inj.DeadAt(cluster.NodeID(ev.Node), at) {
			return ev, true
		}
	}
	return trace.Event{}, false
}

// duplicateLiveBlocks lists the blocks that appear in more than one
// non-Lost TaskStat (in first-seen order; empty on a correct run).
func duplicateLiveBlocks(res *mapreduce.Result) []hdfs.BlockID {
	live := make(map[hdfs.BlockID]int, len(res.Tasks))
	var dup []hdfs.BlockID
	for _, st := range res.Tasks {
		if st.Lost {
			continue
		}
		live[st.Task.Block]++
		if live[st.Task.Block] == 2 {
			dup = append(dup, st.Task.Block)
		}
	}
	return dup
}
