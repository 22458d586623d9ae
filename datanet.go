// Package datanet is the public API of this DataNet reproduction
// ("DataNet: A Data Distribution-aware Method for Sub-dataset Analysis On
// Distributed File Systems", IPDPS 2016).
//
// DataNet makes sub-dataset analyses over block-oriented distributed file
// systems workload-balanced by (1) scanning the raw data once to build an
// ElasticMap — per-block meta-data that stores dominant sub-dataset sizes
// exactly in a hash map and non-dominant ones approximately in a Bloom
// filter — and (2) scheduling block tasks with a distribution-aware
// algorithm that drives every node toward the average workload.
//
// A minimal end-to-end session:
//
//	topo := datanet.NewCluster(32, 4)
//	fs, _ := datanet.NewFileSystem(topo, datanet.FSConfig{})
//	fs.Write("logs", recs)                       // recs: []datanet.Record
//	meta, _ := datanet.BuildMeta(fs, "logs", datanet.MetaOptions{})
//	job := datanet.Job{FS: fs, File: "logs", Target: "movie-00042",
//	    App: datanet.WordCount(), Scheduler: datanet.SchedulerDataNet, Meta: meta}
//	result, _ := job.Run()
//
// The sub-packages under internal/ implement the substrates (HDFS model,
// MapReduce engine, generators, statistics); this package re-exports the
// surface a downstream user needs.
package datanet

import (
	"errors"
	"fmt"
	"runtime"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/detect"
	"datanet/internal/elasticmap"
	"datanet/internal/faults"
	"datanet/internal/hdfs"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
	"datanet/internal/partition"
	"datanet/internal/records"
	"datanet/internal/sched"
	"datanet/internal/straggle"
	"datanet/internal/trace"
)

// Record is one log record; Sub is its sub-dataset key.
type Record = records.Record

// Topology describes the compute cluster.
type Topology = cluster.Topology

// NodeID identifies a cluster node.
type NodeID = cluster.NodeID

// FileSystem is the HDFS-model filesystem. Write takes ownership of the
// record slice it is given — blocks alias it instead of copying — so do
// not modify the records after the call.
type FileSystem = hdfs.FileSystem

// FSConfig configures block size, replication and placement.
type FSConfig = hdfs.Config

// Block is one stored block with its replica locations.
type Block = hdfs.Block

// MetaOptions configures ElasticMap construction (α, Bloom false-positive
// rate, bucket bounds, or a memory budget).
type MetaOptions = elasticmap.Options

// App is a MapReduce analysis application. An executed job calls Map from
// several goroutines at once, on distinct records, so Map must be safe for
// concurrent use (see apps.App).
type App = apps.App

// Result is a completed job's outcome.
type Result = mapreduce.Result

// FaultPlan schedules failures for a run: node crashes (permanent or with
// rejoin), degraded hardware rates, and transient read errors. All faults
// are deterministic functions of the plan, so runs replay identically.
type FaultPlan = faults.Plan

// Crash kills one node at a simulated time (see FaultPlan).
type Crash = faults.Crash

// Slowdown scales one node's CPU/disk/NIC rates (see FaultPlan).
type Slowdown = faults.Slowdown

// ReadErrors configures transient per-attempt block-read failures.
type ReadErrors = faults.ReadErrors

// RetryPolicy bounds task re-execution under faults (attempt cap and
// exponential backoff in simulated time).
type RetryPolicy = faults.RetryPolicy

// DetectorConfig selects how the master learns about node crashes: the
// historical oracle (instant knowledge) or a fixed-timeout heartbeat
// detector. The zero value is the oracle, preserving pre-detector behavior
// exactly.
type DetectorConfig = detect.Config

// DetectorMode enumerates failure-detection strategies.
type DetectorMode = detect.Mode

// Detector modes for DetectorConfig.Mode.
const (
	// DetectOracle reacts to crashes at the crash instant (no detection
	// delay — the pre-detector engine behavior).
	DetectOracle = detect.Oracle
	// DetectHeartbeat suspects a node after a fixed number of missed
	// heartbeats (timeout = 3 × interval unless overridden).
	DetectHeartbeat = detect.Heartbeat
)

// MitigationConfig configures the straggler-mitigation layer: quantile-
// triggered speculative backups or coded k-of-n execution. The zero value
// (and a nil pointer) disable mitigation bit-identically.
type MitigationConfig = straggle.Config

// MitigationMode enumerates mitigation strategies.
type MitigationMode = straggle.Mode

// Mitigation modes for MitigationConfig.Mode.
const (
	// MitigateOff disables mitigation (the zero value).
	MitigateOff = straggle.ModeOff
	// MitigateSpeculative launches budgeted backup attempts for tasks
	// whose projected completion sits above the running-attempt quantile.
	MitigateSpeculative = straggle.ModeSpeculative
	// MitigateCoded splits the task set into k-of-n groups with Reed-
	// Solomon parity tasks; any k completions reconstruct the rest.
	MitigateCoded = straggle.ModeCoded
)

// PartitionConfig configures key-aware reduce partitioning: the strategy,
// the weighted-reservoir sample size and seed (range mode), and the
// per-key split cap (skew mode). A nil pointer or Mode "off" gives
// every reducer the uniform 1/R shuffle share.
type PartitionConfig = partition.Config

// PartitionMode enumerates reduce-partitioning strategies.
type PartitionMode = partition.Mode

// Partition modes for PartitionConfig.Mode.
const (
	// PartitionOff disables key-aware partitioning (the zero value).
	PartitionOff = partition.ModeOff
	// PartitionHash assigns keys by FNV hash modulo the reducer count —
	// the classic baseline, balanced only when the keys are.
	PartitionHash = partition.ModeHash
	// PartitionSkew bin-packs keys by harvested frequency (LPT greedy),
	// splitting heavy keys across reducers; its max reducer load never
	// exceeds hash's.
	PartitionSkew = partition.ModeSkew
	// PartitionRange cuts the key space at quantiles of a weighted
	// reservoir sample, giving each reducer a contiguous key range.
	PartitionRange = partition.ModeRange
)

// Trace records a run's full event timeline on the simulated clock:
// scheduler decision audits (candidates, locality, workload vs the
// cluster-average W̄, which rule fired), task attempts, fault deliveries,
// re-replications and phase barriers. Export with WriteJSONL,
// WriteChromeTrace (Perfetto / chrome://tracing) or Snapshot.
type Trace = trace.Recorder

// NewTrace returns an empty recorder, ready for Job.Trace.
func NewTrace() *Trace { return trace.New() }

// TraceEvent is one recorded timeline entry.
type TraceEvent = trace.Event

// MetricsSnapshot is the counters/gauges/histograms digest of a trace.
type MetricsSnapshot = metrics.Snapshot

// Typed job-failure errors under faults.
var (
	// ErrDataLost: every replica of a needed block was destroyed.
	ErrDataLost = mapreduce.ErrDataLost
	// ErrRetriesExhausted: a task exceeded its attempt cap.
	ErrRetriesExhausted = mapreduce.ErrRetriesExhausted
	// ErrNoLiveNodes: the whole cluster died before the job finished.
	ErrNoLiveNodes = mapreduce.ErrNoLiveNodes
)

// NewCluster builds n homogeneous nodes over the given rack count; it
// panics on invalid sizes (use cluster.NewHomogeneous via the internal
// package for error returns in library code).
func NewCluster(n, racks int) *Topology {
	return cluster.MustHomogeneous(n, racks)
}

// NewScaledCluster builds n homogeneous nodes whose disk/CPU/network rates
// are scaled so that processing one block of blockSize bytes takes as long
// as a 64 MiB block would on Marmot-class hardware. Use it when running
// scaled-down datasets (small blocks) so the simulated timings keep the
// paper's proportions instead of being swamped by fixed per-task
// overheads; it panics on invalid sizes.
func NewScaledCluster(n, racks int, blockSize int64) *Topology {
	topo, err := cluster.NewHeterogeneous(hdfs.ScaledNodes(n, racks, blockSize), racks)
	if err != nil {
		panic(err)
	}
	return topo
}

// NewFileSystem creates an empty HDFS-model filesystem.
func NewFileSystem(topo *Topology, cfg FSConfig) (*FileSystem, error) {
	return hdfs.NewFileSystem(topo, cfg)
}

// Meta is the ElasticMap array over one file plus the context needed to
// schedule against it.
type Meta struct {
	arr  *elasticmap.Array
	file string
}

// BuildMeta scans file's blocks once and constructs its ElasticMap array,
// building the blocks' meta-data in parallel on GOMAXPROCS goroutines (the
// array is identical to a sequential build). When opts.BucketBounds is nil,
// Fibonacci bucket bounds scaled to the filesystem's block size are used
// (the paper's 1 kb unit corresponds to 64 MB blocks).
func BuildMeta(fs *FileSystem, file string, opts MetaOptions) (*Meta, error) {
	perBlock, err := fs.BlockRecords(file)
	if err != nil {
		return nil, err
	}
	if opts.BucketBounds == nil {
		opts.BucketBounds = elasticmap.ScaledFibonacciBounds(fs.Config().BlockSize)
	}
	return &Meta{arr: elasticmap.BuildParallel(perBlock, opts, runtime.GOMAXPROCS(0)), file: file}, nil
}

// Array exposes the underlying ElasticMap array.
func (m *Meta) Array() *elasticmap.Array { return m.arr }

// Estimate returns the Eq.-6 total-size estimate of a sub-dataset.
func (m *Meta) Estimate(sub string) int64 { return m.arr.Estimate(sub) }

// Weights returns per-block |b ∩ sub| estimates in block order — the
// scheduler input.
func (m *Meta) Weights(sub string) []int64 { return m.arr.Weights(sub) }

// MemoryBytes returns the meta-data footprint.
func (m *Meta) MemoryBytes() int64 { return m.arr.MemoryBits() / 8 }

// Encode serializes the meta-data for persistence.
func (m *Meta) Encode() ([]byte, error) { return elasticmap.Encode(m.arr) }

// DecodeMeta reloads meta-data produced by Encode.
func DecodeMeta(data []byte, file string) (*Meta, error) {
	arr, err := elasticmap.Decode(data)
	if err != nil {
		return nil, err
	}
	return &Meta{arr: arr, file: file}, nil
}

// Scheduler selects the task-assignment policy for a job; *Scheduler is a
// flag.Value over the one scheduler table, which the plan endpoint reads
// too.
type Scheduler = sched.Policy

// Available schedulers.
const (
	// SchedulerLocality is Hadoop's default block-locality scheduling
	// (the paper's baseline).
	SchedulerLocality = sched.Locality
	// SchedulerDataNet is the paper's Algorithm 1 (requires Meta).
	SchedulerDataNet = sched.DataNet
	// SchedulerCapacityAware is Algorithm 1 with capacity-proportional
	// targets for heterogeneous clusters.
	SchedulerCapacityAware = sched.CapacityAware
	// SchedulerMaxFlow is the offline Ford–Fulkerson optimal assignment.
	SchedulerMaxFlow = sched.MaxFlow
	// SchedulerLPT is the longest-processing-time greedy ablation.
	SchedulerLPT = sched.LPT
)

// ErrUnknownScheduler reports a scheduler name Set does not know, or a
// Scheduler value outside the table.
var ErrUnknownScheduler = sched.ErrUnknownPolicy

// Job describes one sub-dataset analysis run.
type Job struct {
	// FS and File locate the input.
	FS   *FileSystem
	File string
	// Target is the sub-dataset key to analyze ("" = whole dataset).
	Target string
	// App is the analysis application.
	App App
	// Scheduler picks the policy; distribution-aware policies need Meta.
	Scheduler Scheduler
	// Meta supplies block weights for distribution-aware scheduling.
	Meta *Meta
	// SkipEmpty drops blocks the meta-data proves empty of Target.
	SkipEmpty bool
	// Execute runs the real Map/Reduce functions and fills Result.Output.
	Execute bool
	// Reducers overrides the reduce-task count (default: one per node).
	Reducers int
	// Faults, when non-nil, injects failures (crashes, slowdowns, read
	// errors) into the run; the engine recovers via re-replication and
	// bounded retries, or fails with a typed error (ErrDataLost,
	// ErrRetriesExhausted, ErrNoLiveNodes) when recovery is impossible.
	Faults *FaultPlan
	// Retry bounds task re-execution under faults; zero fields take
	// Hadoop-like defaults (4 attempts, 0.5 s backoff, doubling).
	Retry RetryPolicy
	// Detect selects the failure detector. The zero value is the oracle:
	// the master reacts to crashes instantly, as before detectors
	// existed. Heartbeat mode pays a detection delay and may falsely
	// suspect slow nodes (reconciled by duplicate-completion dedupe).
	Detect DetectorConfig
	// Mitigate, when non-nil and not off, turns on straggler mitigation:
	// quantile-triggered speculative backups or coded k-of-n execution.
	// Nil (or Mode "off") runs are bit-identical to pre-mitigation runs.
	Mitigate *MitigationConfig
	// Partition, when non-nil and not off, plans the key → reducer
	// assignment from key frequencies harvested during the analysis-map
	// phase instead of the uniform 1/R split. Which strategy runs
	// never changes the merged output — only the shuffle/reduce timing.
	Partition *PartitionConfig
	// MetaErr records that meta-data for this job failed to load (e.g. a
	// corrupt ElasticMap encoding). The job then degrades to the locality
	// baseline and sets Result.MetadataFallback instead of failing, as it
	// does when Meta was built over a file other than File.
	MetaErr error
	// Trace, when non-nil, records the run's event timeline and scheduler
	// decision audit (see NewTrace). Nil runs record nothing and are
	// bit-identical to untraced runs.
	Trace *Trace
}

// Run executes the job on the simulated engine. A Scheduler no constant
// names fails with ErrUnknownScheduler.
func (j Job) Run() (*Result, error) {
	if err := j.Scheduler.Validate(); err != nil {
		return nil, err
	}
	var weights []int64
	weightsErr := j.MetaErr
	if j.Meta != nil && j.Scheduler != SchedulerLocality {
		if j.Meta.file == j.File {
			weights = j.Meta.Weights(j.Target)
		} else if weightsErr == nil {
			weightsErr = fmt.Errorf("meta-data describes file %q, not the job's %q", j.Meta.file, j.File)
		}
	}
	return mapreduce.Run(mapreduce.Config{
		FS:         j.FS,
		File:       j.File,
		TargetSub:  j.Target,
		App:        j.App,
		Picker:     j.Scheduler.Factory(),
		Weights:    weights,
		SkipEmpty:  j.SkipEmpty && weights != nil,
		Reducers:   j.Reducers,
		ExecuteApp: j.Execute,
		Faults:     j.Faults,
		Retry:      j.Retry,
		Detect:     j.Detect,
		Mitigate:   j.Mitigate,
		Partition:  j.Partition,
		WeightsErr: weightsErr,
		Trace:      j.Trace,
	})
}

// Built-in applications (paper §V-A).

// WordCount counts word occurrences in the target sub-dataset.
func WordCount() App { return apps.WordCount{} }

// WordHistogram computes the aggregate word-length histogram.
func WordHistogram() App { return apps.WordHistogram{} }

// MovingAverage smooths the rating series over the given window.
func MovingAverage(windowSeconds int64) App { return apps.NewMovingAverage(windowSeconds) }

// TopKSearch finds the k records most similar to query.
func TopKSearch(k int, query string) App { return apps.NewTopKSearch(k, query) }

// Sessionize reconstructs session windows from the target's event stream
// (the user-sessionization analysis the paper's introduction motivates).
func Sessionize(gapSeconds int64) App { return apps.NewSessionize(gapSeconds) }

// DistributedSort globally orders the target's records by timestamp:
// with PartitionRange each reducer owns a contiguous key range, so the
// concatenated reducer outputs are the sorted stream.
func DistributedSort() App { return apps.DistributedSort{} }

// AppName names a built-in application the way the CLI spells it, run at
// the fixed parameters of its table row; *AppName is a flag.Value.
type AppName int

// The named applications, in table order.
const (
	AppWordCount AppName = iota
	AppHistogram
	AppMovingAverage
	AppTopK
	AppSort
	AppJoin
)

// day is the moving-average and join window, in seconds.
const day = 86400

// appTable is the one table of named applications, indexed by AppName.
// Join's row has no constructor: New builds it from its build side.
var appTable = [...]struct {
	name  string
	build func() App
}{
	AppWordCount:     {"wordcount", WordCount},
	AppHistogram:     {"histogram", WordHistogram},
	AppMovingAverage: {"movingavg", func() App { return MovingAverage(day) }},
	AppTopK:          {"topk", func() App { return TopKSearch(10, "plot twist ending amazing director") }},
	AppSort:          {"sort", DistributedSort},
	AppJoin:          {"join", nil},
}

// ErrUnknownApp reports an application name Set does not know.
var ErrUnknownApp = errors.New("datanet: unknown app")

// String names the application.
func (a AppName) String() string { return appTable[a].name }

// Set parses an application name.
func (a *AppName) Set(name string) error {
	for i, row := range appTable {
		if name == row.name {
			*a = AppName(i)
			return nil
		}
	}
	return fmt.Errorf("%w %q (want wordcount, histogram, movingavg, topk, sort or join)", ErrUnknownApp, name)
}

// New builds the application. Join is the one row that needs more than its
// name: it joins against sub-dataset joinSub, whose day windows
// BuildJoinSide aggregates over file from the distribution of the meta-data
// meta returns; meta is called for join only.
func (a AppName) New(fs *FileSystem, file, joinSub string, meta func() (*Meta, error)) (App, error) {
	if build := appTable[a].build; build != nil {
		return build(), nil
	}
	if joinSub == "" {
		return nil, fmt.Errorf("app %s needs a build-side sub-dataset", a)
	}
	m, err := meta()
	if err != nil {
		return nil, err
	}
	side, err := BuildJoinSide(fs, file, m, joinSub, day)
	if err != nil {
		return nil, err
	}
	return SubDatasetJoin(joinSub, day, side), nil
}

// SubDatasetJoin joins the analyzed sub-dataset's time-windowed rating
// stream against a second sub-dataset's pre-aggregated windows (see
// BuildJoinSide). windowSeconds <= 0 takes the one-day default.
func SubDatasetJoin(buildSub string, windowSeconds int64, build map[string]string) App {
	return apps.NewSubDatasetJoin(buildSub, windowSeconds, build)
}

// BuildJoinSide aggregates buildSub's rating stream into per-window
// "count×mean" join entries, scanning only the blocks the ElasticMap
// distribution reports non-empty — the meta-data prunes the build-side
// scan exactly as it prunes analysis scheduling.
func BuildJoinSide(fs *FileSystem, file string, meta *Meta, buildSub string, windowSeconds int64) (map[string]string, error) {
	byBlock, err := fs.BlockRecords(file)
	if err != nil {
		return nil, err
	}
	return apps.BuildJoinSide(byBlock, meta.Array().Distribution(buildSub), buildSub, windowSeconds), nil
}
