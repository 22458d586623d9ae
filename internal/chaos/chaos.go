// Package chaos is a randomized robustness harness for the simulated
// MapReduce engine: from one seed it derives a reproducible fault plan
// (crashes, rejoins, degraded hardware, transient read errors), runs every
// scheduler under the failure detector, and checks execution invariants
// that must hold no matter what the plan did — no records silently lost,
// workload conserved, phase timestamps monotonic, runs bit-identical on
// replay, and makespan bounded relative to the healthy run. A violating
// seed is a bug; the shrinker (see shrink.go) reduces its plan to a
// minimal counterexample before a human ever looks at it.
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
)

// Params sizes the chaos fixture and bounds the generated fault plans.
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
	// Detect selects the failure-detector mode the runs execute under.
	Detect detect.Config
	// MakespanBound and SlackSeconds bound a faulted run's job time:
	// JobTime ≤ healthy × MakespanBound + SlackSeconds. The additive term
	// absorbs fixed costs (detection timeouts, retry backoff) that dwarf
	// this small fixture's sub-second healthy makespan.
	MakespanBound, SlackSeconds float64
	// Rebalance, when not "" / "off", runs the distribution-aware
	// rebalancer (hdfs.Rebalancer in that mode) on each run's filesystem
	// before the job, and activates the no-lost-blocks invariant:
	// rebalancing must never leave a block without replicas or with two
	// replicas co-located on one node, and the run's output must still
	// match the fault-free reference.
	Rebalance string
	// Mitigate, when not "" / "off", adds a straggler-mitigated arm
	// ("speculative" = quantile-triggered backups, "coded" = k-of-n
	// redundancy) that runs every plan under all the standard invariants
	// plus the mitigation ones: a mitigated run must succeed whenever the
	// unmitigated baseline does, and its extra work must stay within the
	// configured budget (launch cap / fixed parity layout).
	Mitigate string
	// PayloadBytes overrides the fixture's per-record payload size and
	// TaskOverhead the engine's fixed per-task cost (zero = defaults).
	// Together they let a mitigation campaign build a scan-dominated
	// fixture where slowdown plans produce genuine stragglers; the
	// default fixture's 2 KiB blocks are overhead-dominated.
	PayloadBytes int
	TaskOverhead float64
	// Partition, when not "" / "off", adds key-aware reduce-partitioning
	// arms that inherit every existing invariant plus partition
	// independence: the merged reduce output must stay byte-identical to
	// the partitioning-off baseline, under any fault plan and any reducer
	// count (rotated per seed). "hash", "skew" or "range" pins one
	// strategy; "rotate" cycles through all three across seeds.
	Partition string
}

// DefaultParams is the CI-sized configuration: an 8-node fixture small
// enough that hundreds of seeds run in seconds.
func DefaultParams() Params {
	return Params{
		Nodes: 8, Racks: 2, BlockSize: 2048, Records: 800,
		MaxCrashes: 2, MaxSlow: 2, RejoinProb: 0.5, MaxReadErrProb: 0.15,
		Detect:        detect.Config{Mode: detect.Heartbeat, Interval: 0.02},
		MakespanBound: 50, SlackSeconds: 10,
	}
}

// Violation is one invariant breach: the seed to replay it, the scheduler
// it broke under, which invariant, and the plan that provoked it.
type Violation struct {
	Seed      uint64
	Scheduler string
	Invariant string
	Detail    string
	Plan      *faults.Plan
}

func (v Violation) String() string {
	return fmt.Sprintf("seed=%d scheduler=%s invariant=%s: %s",
		v.Seed, v.Scheduler, v.Invariant, v.Detail)
}

// Report summarizes one chaos campaign.
type Report struct {
	Runs       int
	Violations []Violation
	// Census of what the generated plans contained.
	Crashes, Slowdowns, ReadErrorRuns int
}

// Harness holds the precomputed fixture — healthy reference results per
// scheduler and the ground-truth scheduling weights — so each seed only
// pays for its own faulted runs.
type Harness struct {
	p       Params
	weights []int64
	healthy map[string]*mapreduce.Result
	horizon float64
	// mit is the parsed Params.Mitigate config (nil when off) and mitArm
	// the name of the mitigated scheduler arm it adds.
	mit    *straggle.Config
	mitArm string
	// partModes lists the reduce-partitioning strategies under test (empty
	// when Params.Partition is off).
	partModes []partition.Mode
}

type schedulerArm struct {
	name  string
	tweak func(*mapreduce.Config)
	// part marks a key-aware partitioning arm (the zero value "" is a
	// legacy volumetric arm).
	part partition.Mode
}

func (h *Harness) schedulers() []schedulerArm {
	arms := []schedulerArm{
		{name: "hadoop-locality", tweak: func(c *mapreduce.Config) {}},
		{name: "datanet", tweak: func(c *mapreduce.Config) {
			c.Picker = sched.NewDataNetPicker
			c.Weights = h.weights
		}},
		{name: "speculative", tweak: func(c *mapreduce.Config) { c.Speculative = true }},
	}
	if h.mit != nil {
		arms = append(arms, schedulerArm{name: h.mitArm, tweak: func(c *mapreduce.Config) {
			mit := *h.mit
			c.Mitigate = &mit
		}})
	}
	return arms
}

// partitionArms returns one arm per configured partitioning mode. Each
// arm runs under the DataNet scheduler (the paper's configuration) with
// key-aware partitioning on; the reducer count is rotated per seed by
// runArm so independence is exercised across widths, and the range
// sampler's seed is fixed so replays are bit-identical. When the campaign
// is mitigated, the partition arms inherit the mitigation mode —
// independence must survive speculative backups and coded recovery, not
// just plain crash/slowdown plans.
func (h *Harness) partitionArms() []schedulerArm {
	arms := make([]schedulerArm, 0, len(h.partModes))
	for _, mode := range h.partModes {
		mode := mode
		arms = append(arms, schedulerArm{
			name: "partition-" + string(mode),
			part: mode,
			tweak: func(c *mapreduce.Config) {
				c.Picker = sched.NewDataNetPicker
				c.Weights = h.weights
				c.Partition = &partition.Config{Mode: mode, Seed: 20160523}
				if h.mit != nil {
					mit := *h.mit
					c.Mitigate = &mit
				}
			},
		})
	}
	return arms
}

// chaosFS builds the fixture filesystem. The layout is a pure function of
// the parameters, so every call yields an indistinguishable instance —
// required because crashes mutate replica placement.
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

func (h *Harness) baseConfig(fs *hdfs.FileSystem) mapreduce.Config {
	return mapreduce.Config{
		FS: fs, File: "log", TargetSub: "movie-A",
		App: apps.WordCount{}, Picker: sched.NewLocalityPicker,
		ExecuteApp: true, TaskOverhead: h.p.TaskOverhead,
	}
}

// NewHarness builds the fixture and runs the fault-free reference for
// every scheduler.
func NewHarness(p Params) (*Harness, error) {
	if p.Nodes == 0 {
		p = DefaultParams()
	}
	h := &Harness{p: p, healthy: map[string]*mapreduce.Result{}}
	if p.Mitigate != "" {
		mode, err := straggle.ParseMode(p.Mitigate)
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		if mode != straggle.ModeOff {
			h.mit = &straggle.Config{Mode: mode}
			h.mitArm = "mitigate-" + string(mode)
		}
	}
	switch p.Partition {
	case "", "off":
	case "rotate":
		h.partModes = []partition.Mode{partition.ModeHash, partition.ModeSkew, partition.ModeRange}
	default:
		mode, err := partition.ParseMode(p.Partition)
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		if mode != partition.ModeOff {
			h.partModes = []partition.Mode{mode}
		}
	}

	// Ground-truth weights for the DataNet arm, from the block split
	// (identical across fixture instances).
	fs, err := chaosFS(p)
	if err != nil {
		return nil, err
	}
	blocks, err := fs.Blocks("log")
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

	for _, s := range append(h.schedulers(), h.partitionArms()...) {
		fs, err := chaosFS(p)
		if err != nil {
			return nil, err
		}
		cfg := h.baseConfig(fs)
		s.tweak(&cfg)
		res, err := mapreduce.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("chaos: healthy reference (%s): %w", s.name, err)
		}
		h.healthy[s.name] = res
	}
	// The mitigated arm must be output-transparent even before any fault
	// is injected: redundancy may change the schedule, never the answer.
	if h.mit != nil {
		if !reflect.DeepEqual(h.healthy[h.mitArm].Output, h.healthy["hadoop-locality"].Output) {
			return nil, fmt.Errorf("chaos: healthy %s output diverges from the unmitigated baseline", h.mitArm)
		}
	}
	// Partition independence starts at the healthy runs: every partitioner
	// must reproduce the volumetric baseline's merged output exactly.
	for _, s := range h.partitionArms() {
		if !reflect.DeepEqual(h.healthy[s.name].Output, h.healthy["hadoop-locality"].Output) {
			return nil, fmt.Errorf("chaos: healthy %s output diverges from the partitioning-off baseline", s.name)
		}
	}
	h.horizon = h.healthy["hadoop-locality"].FilterEnd
	return h, nil
}

// CheckSeed generates the seed's plan and checks it under every
// scheduler, returning any violations.
func (h *Harness) CheckSeed(seed uint64) ([]Violation, *faults.Plan) {
	plan := GenPlan(seed, h.horizon, h.p)
	return h.CheckPlan(seed, plan), plan
}

// typedFailure reports whether err is one of the engine's declared
// failure modes — outcomes the invariants permit (data genuinely lost,
// retries exhausted, cluster dead), as opposed to silent corruption.
func typedFailure(err error) bool {
	return errors.Is(err, mapreduce.ErrDataLost) ||
		errors.Is(err, mapreduce.ErrRetriesExhausted) ||
		errors.Is(err, mapreduce.ErrNoLiveNodes)
}

// failFunc records one invariant breach.
type failFunc func(sched, inv, format string, args ...any)

// armsFor lists the arms one seed runs: every scheduler arm plus, when
// partitioning is under test, one partition arm rotated per seed (a
// campaign covers every mode).
func (h *Harness) armsFor(seed uint64) []schedulerArm {
	arms := h.schedulers()
	if parts := h.partitionArms(); len(parts) > 0 {
		arms = append(arms, parts[int(seed%uint64(len(parts)))])
	}
	return arms
}

// runArm executes the plan under one arm on a fresh fixture instance.
// fail receives the rebalance invariant's breaches (nil discards them).
func (h *Harness) runArm(s schedulerArm, seed uint64, plan *faults.Plan, fail failFunc) (*mapreduce.Result, error) {
	fs, err := chaosFS(h.p)
	if err != nil {
		return nil, err
	}
	if h.p.Rebalance != "" && h.p.Rebalance != hdfs.RebalanceOff {
		if fail == nil {
			fail = func(string, string, string, ...any) {}
		}
		if err := h.rebalance(fs, seed, fail, s.name); err != nil {
			return nil, err
		}
	}
	cfg := h.baseConfig(fs)
	s.tweak(&cfg)
	if s.part != "" {
		// The reducer count rotates with the seed: independence must hold
		// at any width, not just the default one-per-node.
		cfg.Reducers = 1 + int(seed>>3%13)
	}
	cfg.Faults = plan
	cfg.Detect = h.p.Detect
	return mapreduce.Run(cfg)
}

// CheckPlan runs one fault plan under every scheduler (twice each, for
// the replay invariant) and returns every invariant breach. It is the
// predicate the shrinker re-runs, so it must be deterministic.
func (h *Harness) CheckPlan(seed uint64, plan *faults.Plan) []Violation {
	var out []Violation
	fail := func(sched, inv, format string, args ...any) {
		out = append(out, Violation{
			Seed: seed, Scheduler: sched, Invariant: inv,
			Detail: fmt.Sprintf(format, args...), Plan: plan,
		})
	}
	if err := plan.Validate(h.p.Nodes); err != nil {
		fail("-", "plan-validate", "generated plan invalid: %v", err)
		return out
	}
	armErr := map[string]error{}
	for _, s := range h.armsFor(seed) {
		// The rebalance invariant is checked once; the replay run still
		// rebalances so both runs see the same layout.
		res, err := h.runArm(s, seed, plan, fail)
		res2, err2 := h.runArm(s, seed, plan, nil)
		armErr[s.name] = err

		// Replay: identical (seed, plan, config) must reproduce the run
		// bit for bit — errors included.
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			fail(s.name, "replay", "errors diverge across replays: %v vs %v", err, err2)
			continue
		}
		if err == nil && !reflect.DeepEqual(res, res2) {
			fail(s.name, "replay", "results diverge across identical replays")
			continue
		}
		if err != nil {
			if !typedFailure(err) {
				fail(s.name, "typed-error", "untyped failure: %v", err)
			}
			continue
		}

		healthy := h.healthy[s.name]
		// No records lost: a run that claims success must produce the
		// fault-free output.
		if !reflect.DeepEqual(res.Output, healthy.Output) {
			fail(s.name, "records-lost", "output diverges from fault-free run (%d vs %d keys)",
				len(res.Output), len(healthy.Output))
		}
		// Exactly-once commit: every block has at most one surviving filter
		// output, whatever was retried, duplicated or decoded along the way.
		if dup := duplicateLiveBlocks(res); len(dup) > 0 {
			fail(s.name, "unique-live-stat", "blocks with more than one live output: %v", dup)
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
			fail(s.name, "workload-conservation", "filtered bytes %d, want %d", got, want)
		}
		// Phase timestamps must stay monotonic under any fault schedule.
		if !(res.FilterEnd > 0 &&
			res.FirstMapEnd >= res.FilterEnd &&
			res.MapEnd >= res.FirstMapEnd &&
			res.ShuffleEnd >= res.MapEnd &&
			res.ReduceEnd >= res.ShuffleEnd &&
			res.JobTime == res.ReduceEnd) {
			fail(s.name, "phase-monotonic",
				"filter=%g firstMap=%g map=%g shuffle=%g reduce=%g job=%g",
				res.FilterEnd, res.FirstMapEnd, res.MapEnd, res.ShuffleEnd, res.ReduceEnd, res.JobTime)
		}
		// Detection latencies are gaps between a crash and its response:
		// they cannot be negative, and under a non-oracle detector they
		// cannot be zero.
		for _, l := range res.DetectionLatency {
			if l < 0 || (h.p.Detect.Mode != detect.Oracle && l == 0) {
				fail(s.name, "detect-latency", "latency %g out of range", l)
			}
		}
		// A successful run must finish in bounded time relative to the
		// healthy run — a "recovered" job that took forever is a hang.
		bound := healthy.JobTime*h.p.MakespanBound + h.p.SlackSeconds
		if res.JobTime > bound {
			fail(s.name, "makespan-bound", "job time %g exceeds %g (healthy %g)",
				res.JobTime, bound, healthy.JobTime)
		}
		// Shuffle-byte conservation: the per-reducer attribution must sum
		// exactly to the total that crossed the network, on every arm.
		var perReducer int64
		for _, b := range res.ShuffleBytesPerReducer {
			perReducer += b
		}
		if perReducer != res.ShuffleBytes {
			fail(s.name, "shuffle-conservation", "per-reducer bytes sum %d, ShuffleBytes %d",
				perReducer, res.ShuffleBytes)
		}
		// Partition independence: a key-aware arm must report its strategy
		// and reproduce the partitioning-off baseline's merged output
		// byte-for-byte, whatever the plan did.
		if s.part != "" {
			if res.PartitionName != string(s.part) {
				fail(s.name, "partition-independence", "run reports partitioner %q, want %q",
					res.PartitionName, s.part)
			}
			if !reflect.DeepEqual(res.Output, h.healthy["hadoop-locality"].Output) {
				fail(s.name, "partition-independence",
					"merged output diverges from the partitioning-off baseline (%d vs %d keys)",
					len(res.Output), len(h.healthy["hadoop-locality"].Output))
			}
		}
		// Mitigation arm: work amplification stays within the declared
		// budget — the launch cap for speculation, the fixed parity
		// layout for coding (faults must never inflate redundancy).
		if h.mit != nil && s.name == h.mitArm {
			switch h.mit.Mode {
			case straggle.ModeSpeculative:
				budget := len(healthy.Tasks) / 4
				if budget < 1 {
					budget = 1
				}
				if res.SpeculativeLaunches > budget {
					fail(s.name, "mitigation-budget", "%d backups launched, budget %d",
						res.SpeculativeLaunches, budget)
				}
			case straggle.ModeCoded:
				if res.CodedGroups != healthy.CodedGroups || res.CodedParityUnits != healthy.CodedParityUnits {
					fail(s.name, "mitigation-budget", "coded layout %d groups / %d parity, healthy %d / %d",
						res.CodedGroups, res.CodedParityUnits, healthy.CodedGroups, healthy.CodedParityUnits)
				}
			}
		}
	}
	// A straggler mitigation must never turn a survivable plan into a
	// failure: if the unmitigated baseline finished, the mitigated run
	// has strictly more ways to finish.
	if h.mit != nil {
		if base, mit := armErr["hadoop-locality"], armErr[h.mitArm]; base == nil && mit != nil {
			fail(h.mitArm, "mitigation-no-new-failure",
				"baseline succeeded but mitigated run failed: %v", mit)
		}
	}
	return out
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

// rebalance runs the distribution-aware maintenance loop on one fixture
// instance and checks the no-lost-blocks invariant: every block keeps at
// least one replica and no block ends with two replicas on one node. The
// annealing seed derives from the run seed, so replays are identical.
func (h *Harness) rebalance(fs *hdfs.FileSystem, seed uint64, fail failFunc, schedName string) error {
	rb := hdfs.NewRebalancer(fs, hdfs.RebalancerConfig{
		Mode:       h.p.Rebalance,
		AnnealSeed: int64(seed),
	})
	profile := make([]float64, len(h.weights))
	for i, w := range h.weights {
		profile[i] = float64(w)
	}
	if err := rb.ObserveProfile("log", profile); err != nil {
		return err
	}
	for tick := 0; tick < 2; tick++ {
		if _, err := rb.Tick(float64(tick)); err != nil {
			return err
		}
	}
	blocks, err := fs.Blocks("log")
	if err != nil {
		return err
	}
	for _, b := range blocks {
		if len(b.Replicas) == 0 {
			fail(schedName, "rebalance-no-lost-blocks", "block %d has no replicas after rebalancing", b.ID)
			continue
		}
		seen := make(map[cluster.NodeID]bool, len(b.Replicas))
		for _, n := range b.Replicas {
			if seen[n] {
				fail(schedName, "rebalance-no-lost-blocks", "block %d has co-located replicas on node %d", b.ID, n)
				break
			}
			seen[n] = true
		}
	}
	return nil
}

// Run executes a chaos campaign: runs seeds derived from the base seed,
// checking every invariant under every scheduler.
func Run(runs int, seed uint64, p Params) (*Report, error) {
	h, err := NewHarness(p)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	r := newRNG(seed)
	for i := 0; i < runs; i++ {
		runSeed := r.next()
		vs, plan := h.CheckSeed(runSeed)
		rep.Runs++
		rep.Crashes += len(plan.Crashes)
		rep.Slowdowns += len(plan.Slow)
		if plan.Read.Prob > 0 {
			rep.ReadErrorRuns++
		}
		rep.Violations = append(rep.Violations, vs...)
	}
	return rep, nil
}
