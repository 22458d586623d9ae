// Package mapreduce is the parallel-execution substrate: a discrete-event
// simulator of a Hadoop-style MapReduce pipeline over the HDFS model,
// driven by the same pull protocol real task trackers use ("if a worker
// process on cn_i requests a task…", Algorithm 1).
//
// The simulated pipeline mirrors the paper's evaluation workflow (§V-A):
// "we first launch map tasks to filter out our target sub-dataset and
// store them locally on the cluster nodes. Then, we run various analysis
// jobs with different computation patterns to process the filtered
// sub-dataset."
//
//  1. Filter phase — one map task per block; the scheduler under test
//     decides which node scans which block. The matched sub-dataset bytes
//     are stored on the executing node. This is where block scheduling
//     determines the workload distribution.
//  2. Analysis phase — each node processes the sub-dataset bytes that
//     landed on it (the data is local and does not move), at the
//     application's per-byte compute cost. Imbalance from phase 1 turns
//     directly into straggling here (paper Fig. 6).
//  3. Shuffle — the window opens at the first analysis-map completion and
//     cannot close before the last (paper §V-A.3), plus transfer time for
//     the map output volume (paper Fig. 7).
//  4. Reduce — per-reducer compute on its shuffle share.
//
// Durations follow a calibrated cost model; applications really execute
// over the records when Config.ExecuteApp is set, so outputs are exact.
package mapreduce

import (
	"errors"
	"fmt"
	"sort"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/detect"
	"datanet/internal/faults"
	"datanet/internal/hdfs"
	"datanet/internal/partition"
	"datanet/internal/sched"
	"datanet/internal/sim"
	"datanet/internal/straggle"
	"datanet/internal/trace"
)

// Config describes one job.
type Config struct {
	// FS is the filesystem holding the input file.
	FS *hdfs.FileSystem
	// File is the input file name.
	File string
	// TargetSub selects the sub-dataset to analyze; empty processes all
	// records (no filtering).
	TargetSub string
	// App is the analysis application.
	App apps.App
	// Picker builds the task scheduler for the filter phase (locality
	// baseline, DataNet Algorithm 1, …).
	Picker sched.Factory
	// Weights, when non-nil, provides the per-block |b ∩ s| estimates the
	// scheduler sees (from ElasticMap). Nil means the scheduler sees the
	// ground truth (oracle) — the locality baseline ignores weights anyway.
	Weights []int64
	// SkipEmpty, when true, drops blocks whose weight estimate is zero
	// before scheduling — ElasticMap's I/O-saving optimization ("we don't
	// need to process blocks that don't contain our target data", §V-B).
	SkipEmpty bool
	// Reducers is the reduce-task count (default: one per node).
	Reducers int
	// ExecuteApp, when true, actually runs Map/Reduce over the matched
	// records and returns the job output.
	ExecuteApp bool
	// RebalanceAfterFilter models the *reactive* alternative the paper
	// compares against in §V-A.4 (SkewTune-style): after the filter phase,
	// filtered bytes migrate between nodes to level the workload before
	// analysis, paying network transfer time. DataNet makes this migration
	// unnecessary by scheduling the imbalance away up front.
	RebalanceAfterFilter bool
	// Speculative enables Hadoop-style speculative execution during the
	// analysis phase: when a node's analysis runs much longer than the
	// median, a backup attempt starts on the earliest-finishing node
	// (reading the data remotely); the earlier completion wins. This is
	// the paper's other reactive comparator family (runtime monitoring).
	Speculative bool
	// Mitigate, when enabled, turns on the straggler-mitigation layer for
	// the filter phase: quantile-triggered speculative backups
	// (straggle.ModeSpeculative) or k-of-n redundant execution
	// (straggle.ModeCoded). Nil or off leaves every schedule
	// byte-identical to the unmitigated engine. See internal/straggle.
	Mitigate *straggle.Config
	// Partition, when enabled, replaces the uniform 1/R shuffle shares
	// with key-aware reduce partitioning: the engine harvests the
	// intermediate key frequencies during the analysis-map phase, plans a
	// key → reducer assignment (hash baseline, skew-aware bin-packing, or
	// sampled range cuts — see internal/partition), and drives per-reducer
	// shuffle bytes and reduce workloads from the planned shares. Nil or
	// off gives every reducer the same 1/R share.
	Partition *partition.Config
	// TaskOverhead is the fixed per-task startup cost in seconds
	// (JVM/task-setup analogue; default 0.1 s).
	TaskOverhead float64
	// OutputAwareReducers places reduce tasks on the nodes holding the most
	// map output instead of round-robin, so their own partition share never
	// crosses the network — the aggregation-transfer optimization the paper
	// defers to future work ("ElasticMap can also be used to minimize the
	// data transferred", §IV-B).
	OutputAwareReducers bool
	// Faults, when non-nil, injects failures into the run: node crashes
	// (with HDFS re-replication and task retry on surviving replica
	// holders), degraded hardware rates, and transient read errors. Nil
	// simulates a healthy cluster.
	Faults *faults.Plan
	// Retry bounds task re-execution under faults; zero fields take the
	// Hadoop-like defaults (4 attempts, 0.5 s base backoff, doubling).
	Retry faults.RetryPolicy
	// Detect selects how the master learns of node failures. The zero value
	// (detect.Oracle) is the zero-latency detector: the master responds to a
	// crash at the crash instant. Heartbeat mode runs a failure detector
	// on the filter kernel — the master pays real detection latency, may
	// falsely suspect slowed nodes, and reconciles duplicate completions
	// first-finisher-wins.
	Detect detect.Config
	// Trace, when non-nil, records the run's full event timeline on the
	// simulated clock: every scheduler decision with its audit payload
	// (candidates, locality, workload vs W̄, rule), task attempts, fault
	// deliveries, re-replications and phase barriers. Nil (the default)
	// records nothing and costs nothing — results are bit-identical to an
	// untraced run.
	Trace *trace.Recorder
	// KernelTrace, when non-nil, additionally subscribes to the simulation
	// kernel's delivery stream (via trace.KernelTap): one EvKernelDeliver
	// entry per event the filter-phase kernel delivers, in delivery order —
	// the schedule itself, for auditing the determinism contract. It is a
	// separate recorder from Trace so the semantic timeline stays
	// byte-identical whether or not the kernel is being observed.
	KernelTrace *trace.Recorder
	// WeightsErr records that the caller tried and failed to obtain
	// ElasticMap weights (e.g. elasticmap.ErrCodec on a corrupt encoding).
	// The engine then degrades gracefully: the job runs under the locality
	// baseline and Result.MetadataFallback is set, instead of failing or
	// scheduling on garbage. (A nil Weights with a nil WeightsErr still
	// means "oracle truth" as before.)
	WeightsErr error
	// MapOutput, when non-nil, is MapFile's per-block map output for this
	// (File, App, TargetSub): the job folds the stored pairs instead of mapping
	// the records again. A data input, not a switch: no Result field differs.
	MapOutput *MapOutput
}

// The calibrated cost model's fixed rates.
const (
	// filterCostFactor is CPU seconds per matched byte in the filter phase
	// (predicate evaluation plus local write), before the node's CPU rate.
	filterCostFactor = 0.2
	// reduceCostFactor is reduce CPU seconds per shuffled byte.
	reduceCostFactor = 1.0
	// crossRackPenalty divides the NIC rate for remote reads whose source
	// replicas all sit in other racks (two-tier fabric oversubscription).
	crossRackPenalty = 2.0
)

// sameRackAsAnyReplica reports whether node shares a rack with any replica
// holder of t.
func sameRackAsAnyReplica(topo *cluster.Topology, t sched.Task, node cluster.NodeID) bool {
	for _, r := range t.Locations {
		if int(r) >= 0 && int(r) < topo.N() && topo.SameRack(r, node) {
			return true
		}
	}
	return false
}

// TaskStat records one executed filter-phase task.
type TaskStat struct {
	Task    sched.Task
	Node    cluster.NodeID
	Start   float64
	End     float64
	Scan    float64 // seconds reading the block (plus network if remote)
	Compute float64 // seconds in the filter function
	Matched int64   // ground-truth sub-dataset bytes in the block
	Local   bool
	// Attempt is the 1-based execution attempt that produced this stat
	// (always 1 on a healthy cluster).
	Attempt int
	// Lost marks an output later destroyed by its node's crash; the task
	// appears again with a higher Attempt on a surviving node.
	Lost bool
}

// Result is the outcome of a run. All times are simulated seconds from
// job start.
type Result struct {
	// FilterEnd is the filter phase's makespan (a barrier: the analysis
	// job starts after it).
	FilterEnd float64
	// MapEnd bounds the analysis map phase; FirstMapEnd is the earliest
	// per-node analysis completion (the shuffle window opens there).
	MapEnd, FirstMapEnd float64
	// ShuffleEnd, ReduceEnd and JobTime bound the later phases.
	ShuffleEnd, ReduceEnd, JobTime float64
	// AnalysisTime is the analysis job's own execution time, excluding the
	// shared filter pass (JobTime − FilterEnd) — what the paper's Fig. 5(a)
	// reports for the four analysis jobs.
	AnalysisTime float64
	// NodeBusy is each node's total busy time across both map phases.
	NodeBusy map[cluster.NodeID]float64
	// NodeCompute is each node's analysis-phase map time — the paper's
	// "map execution time on the filtered sub-dataset" (Fig. 6).
	NodeCompute map[cluster.NodeID]float64
	// NodeWorkload is the filtered sub-dataset bytes stored per node after
	// the filter phase (Fig. 1(b), 5(c), 8(b)).
	NodeWorkload map[cluster.NodeID]int64
	// ShuffleDurations is the per-reducer shuffle window (Fig. 7).
	ShuffleDurations []float64
	// ShuffleBytes is the map output volume that crossed the network.
	ShuffleBytes int64
	// ShuffleBytesPerReducer attributes ShuffleBytes to individual
	// reducers (same indexing as ShuffleDurations; the entries sum exactly
	// to ShuffleBytes). With partitioning off every reducer gets the
	// uniform 1/R share; with it on, its planned key share.
	ShuffleBytesPerReducer []int64
	// ReduceWorkloads is the per-reducer reduce-phase input volume in
	// output bytes (the workload its compute time scales with).
	ReduceWorkloads []float64
	// PartitionName names the reduce partitioner when Config.Partition is
	// enabled ("" otherwise); PartitionLoads is its planned per-reducer
	// key bytes and PartitionSplitKeys the number of heavy keys split
	// across multiple reducers (skew mode only).
	PartitionName      string
	PartitionLoads     []int64
	PartitionSplitKeys int
	// Tasks lists filter-phase task stats in completion order.
	Tasks []TaskStat
	// LocalTasks/RemoteTasks count filter-phase data-locality outcomes.
	LocalTasks, RemoteTasks int
	// SkippedBlocks counts blocks never scheduled thanks to ElasticMap.
	SkippedBlocks int
	// MigratedBytes and MigrationTime report the reactive-rebalance cost
	// when Config.RebalanceAfterFilter is set.
	MigratedBytes int64
	MigrationTime float64
	// SpeculativeWins counts straggler attempts beaten by a backup: barrier
	// -trigger analysis backups when Config.Speculative is set, plus
	// quantile-trigger filter backups under straggle.ModeSpeculative.
	SpeculativeWins int
	// SpeculativeLaunches counts quantile-trigger backups launched
	// (straggle.ModeSpeculative; bounded by the per-task and per-job
	// speculation budgets — the work-amplification invariant).
	SpeculativeLaunches int
	// WastedTaskSeconds is slot time burned on attempts that were killed
	// redundant: duplicate completions, phase-end kills and k-of-n group
	// kills. WastedBytes is the matched bytes those completed-but-redundant
	// attempts produced.
	WastedTaskSeconds float64
	WastedBytes       int64
	// CodedGroups and CodedParityUnits describe the k-of-n layout when
	// straggle.ModeCoded is set; CodedDecodes counts groups whose missing
	// fragments were reconstructed, CodedDecodedBytes the bytes rebuilt.
	CodedGroups, CodedParityUnits, CodedDecodes int
	CodedDecodedBytes                           int64
	// Output is the reduced job output when Config.ExecuteApp is set.
	Output map[string]string
	// SchedulerName echoes the picker used.
	SchedulerName string
	// NodeCrashes counts crash events applied during the run.
	NodeCrashes int
	// TasksRetried counts filter-task re-executions forced by crashes or
	// read errors (including analysis-phase fragment recoveries).
	TasksRetried int
	// TransientErrors counts injected read failures that burned an attempt.
	TransientErrors int
	// LostOutputs counts committed filter outputs destroyed by crashes.
	LostOutputs int
	// ReplicasRepaired counts block replicas the name-node re-created after
	// crashes.
	ReplicasRepaired int
	// MetadataFallback reports that ElasticMap weights were missing or
	// invalid and the job degraded to the locality baseline (the reason is
	// embedded in SchedulerName).
	MetadataFallback bool
	// FalseSuspicions counts live nodes the failure detector wrongly
	// condemned (always 0 under detect.Oracle).
	FalseSuspicions int
	// DuplicateKills counts redundant attempts killed because another
	// attempt of the same task committed first (false-suspicion and
	// rejoin-race dedupe).
	DuplicateKills int
	// DetectionLatency lists, per responded crash, the gap in simulated
	// seconds between the crash and the master learning of it. Empty under
	// detect.Oracle (the oracle reacts instantly) — heartbeat modes pay a
	// strictly positive latency for every crash they respond to.
	DetectionLatency []float64
}

// Errors.
var (
	ErrNoApp    = errors.New("mapreduce: config needs an App")
	ErrNoPicker = errors.New("mapreduce: config needs a Picker factory")
	// ErrMapOutputMismatch: Config.MapOutput is another app's, target's or file's.
	ErrMapOutputMismatch = errors.New("mapreduce: MapOutput does not match the job")
)

// Run executes the job.
func Run(cfg Config) (*Result, error) {
	if cfg.App == nil {
		return nil, ErrNoApp
	}
	if cfg.Picker == nil {
		return nil, ErrNoPicker
	}
	blocks, err := cfg.FS.Blocks(cfg.File)
	if err != nil {
		return nil, err
	}
	if mo := cfg.MapOutput; mo != nil && !mo.matches(cfg, blocks) {
		return nil, fmt.Errorf("%w: built for %s on %q over %d blocks", ErrMapOutputMismatch, mo.app, mo.target, len(mo.blocks))
	}
	topo := cfg.FS.Topology()
	inj, err := faults.NewInjector(cfg.Faults, topo.N())
	if err != nil {
		return nil, err
	}
	retry := cfg.Retry.WithDefaults()
	// Heartbeat modes run a failure detector on the filter kernel; the
	// oracle (zero value) builds none, but its durations must be valid too.
	if err := cfg.Detect.WithDefaults().Validate(); err != nil {
		return nil, err
	}
	var det *detect.Detector
	if cfg.Detect.Mode != detect.Oracle {
		det, err = detect.New(cfg.Detect, inj, topo.N())
		if err != nil {
			return nil, err
		}
	}
	if cfg.Reducers <= 0 {
		cfg.Reducers = topo.N()
	}
	if cfg.TaskOverhead <= 0 {
		cfg.TaskOverhead = 0.1
	}
	// Straggler mitigation is strictly opt-in; normalize and validate the
	// knobs once here so the filter phase only sees defaulted values.
	var mit straggle.Config
	if cfg.Mitigate.Enabled() {
		mit = cfg.Mitigate.WithDefaults()
		if err := mit.Validate(); err != nil {
			return nil, err
		}
	}
	// Key-aware partitioning is equally opt-in: nil/off shuffles by
	// uniform 1/R shares. The mode goes through the CLI's own parser up
	// front, so a typo fails the job instead of silently hashing.
	var part partition.Partitioner
	if cfg.Partition.Enabled() {
		if err := new(partition.Mode).Set(string(cfg.Partition.Mode)); err != nil {
			return nil, err
		}
		part = partition.New(cfg.Partition)
	}
	rec := cfg.Trace
	if rec.Enabled() {
		for _, ev := range cfg.Faults.TraceEvents() {
			rec.Record(ev)
		}
	}

	// Ground-truth matched bytes per block.
	truth := make([]int64, len(blocks))
	for i, b := range blocks {
		if cfg.TargetSub == "" {
			truth[i] = b.Bytes
		} else {
			for _, r := range b.Records {
				if r.Sub == cfg.TargetSub {
					truth[i] += r.Size()
				}
			}
		}
	}

	// Graceful degradation: when the caller's ElasticMap meta-data failed
	// to load (WeightsErr) or the provided weight vector does not describe
	// this layout, the job must not fail or schedule on garbage — it runs
	// under the locality baseline and says so. Nil Weights with nil
	// WeightsErr still means "oracle truth" as before.
	fallbackReason := ""
	if cfg.WeightsErr != nil {
		fallbackReason = cfg.WeightsErr.Error()
	} else if cfg.Weights != nil {
		if verr := sched.ValidateWeights(cfg.Weights, len(blocks)); verr != nil {
			fallbackReason = verr.Error()
		}
	}
	factory := cfg.Picker
	if fallbackReason != "" {
		factory = sched.NewFallbackLocality(fallbackReason)
		cfg.Weights = nil     // untrusted estimates must not leak into tasks
		cfg.SkipEmpty = false // nor may they drop blocks
		if rec.Enabled() {
			ev := trace.At(0, trace.EvMetaFallback)
			ev.Detail = fallbackReason
			rec.Record(ev)
		}
	}

	// Scheduling weights: ElasticMap estimates when provided, else truth.
	weights := cfg.Weights
	if weights == nil {
		weights = truth
	}

	res := &Result{
		NodeBusy:         make(map[cluster.NodeID]float64),
		NodeCompute:      make(map[cluster.NodeID]float64),
		NodeWorkload:     make(map[cluster.NodeID]int64),
		MetadataFallback: fallbackReason != "",
	}

	// Build the filter-phase task list.
	var tasks []sched.Task
	for i, b := range blocks {
		if cfg.SkipEmpty && i < len(weights) && weights[i] == 0 {
			res.SkippedBlocks++
			continue
		}
		w := int64(0)
		if i < len(weights) {
			w = weights[i]
		}
		tasks = append(tasks, sched.Task{
			Block:     b.ID,
			Index:     i,
			Weight:    w,
			Bytes:     b.Bytes,
			Locations: cfg.FS.Locations(b.ID),
		})
	}

	// k-of-n execution rewrites the task list before scheduling: every
	// group of k consecutive tasks gains parity units (redundant blocks
	// pre-placed across the cluster), and the phase barrier becomes "any k
	// completions per group" instead of "every task".
	coded, tasks, truth := buildCoded(mit, len(blocks), tasks, truth, topo, res)
	var spec *straggle.SpecEngine
	if mit.Mode == straggle.ModeSpeculative {
		spec = straggle.NewSpecEngine(mit.Quantile, len(tasks), cfg.TaskOverhead)
	}

	// The picker may keep tasks: from here on the job only reads it.
	picker := factory(tasks, topo)
	res.SchedulerName = picker.Name()
	if len(tasks) > 0 {
		res.Tasks = make([]TaskStat, 0, len(tasks)) // one stat per commit; a task-less job reports nil
	}

	// Run the phase pipeline (see phases.go) on one simulated clock: the
	// event-driven filter simulation, the optional reactive rebalance, the
	// analysis maps with crash recovery and speculation, the shuffle
	// window and the reduce — each phase advancing the clock to its
	// barrier.
	jc := &jobContext{
		cfg:    cfg,
		topo:   topo,
		inj:    inj,
		clock:  sim.NewClock(),
		rec:    rec,
		res:    res,
		blocks: blocks,
		tasks:  tasks,
		fsim:   newFilterSim(cfg, topo, inj, retry, tasks, truth, picker, res, det, spec, coded),
		coll:   newCollector(cfg.App, cfg.ExecuteApp),
		part:   part,
	}
	if err := runPipeline(jc); err != nil {
		return nil, err
	}

	if cfg.ExecuteApp {
		res.Output = jc.coll.reduce(cfg.App, jc.part)
	}
	sort.Slice(res.Tasks, func(i, j int) bool { return res.Tasks[i].End < res.Tasks[j].End })
	return res, nil
}
