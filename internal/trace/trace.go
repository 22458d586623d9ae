// Package trace is the one timeline model of both clocks. On the
// simulated clock it records what a run actually did: every scheduler
// decision (with the evidence it was made on — candidate replica holders,
// locality hit or miss, the node's workload versus the cluster average W̄,
// and which rule of Algorithm 1 fired), every task attempt, every fault
// the injector delivered, every re-replication the name-node performed,
// and the phase barriers between filter, analysis, shuffle and reduce.
//
// The paper's whole argument is about *where* time and bytes go (Figs.
// 5–8: per-node workload convergence to W̄, locality rates, straggler
// tails); end-of-run aggregates cannot show why a particular run skewed.
// A trace can: it exports as JSONL (one event per line), as Chrome
// trace-event JSON loadable in Perfetto or chrome://tracing (one track
// per node, spans per task), and as a metrics.Snapshot of
// counters/gauges/histograms.
//
// On the Unix clock the serving plane records each HTTP request as one
// EvRequest span (internal/obs keeps them in its ring and slow log), so the
// same JSONL writer and Chrome converter export both timelines.
//
// Recording is opt-in and nil-safe: every method on a nil *Recorder is a
// no-op, so the engine threads a recorder unconditionally and pays nothing
// when tracing is off. Events are appended in simulation order, which is
// deterministic, so identical (seed, config) runs produce byte-identical
// exports.
package trace

// EventType names a kind of timeline event.
type EventType string

// Event types. Span events (task.finish, task.fail, analysis.span,
// shuffle.span, reduce.span, analysis.recover) carry T = span start and
// Dur > 0; all others are instants at T.
const (
	// EvDecision is the scheduler decision audit for one task assignment.
	EvDecision EventType = "sched.decision"
	// EvMetaFallback marks a job degrading to the locality baseline
	// because its ElasticMap weights were missing or invalid.
	EvMetaFallback EventType = "sched.metadata-fallback"
	// EvTaskStart marks a filter-task attempt beginning on a node.
	EvTaskStart EventType = "task.start"
	// EvTaskFinish is the span of a successfully committed attempt.
	EvTaskFinish EventType = "task.finish"
	// EvTaskFail is the span of an attempt burned by a transient read
	// error.
	EvTaskFail EventType = "task.fail"
	// EvTaskVoided marks an in-flight attempt killed by its node's crash.
	EvTaskVoided EventType = "task.voided"
	// EvTaskRetry marks a task being re-queued for another attempt.
	EvTaskRetry EventType = "task.retry"
	// EvOutputLost marks a committed filter output destroyed by a crash.
	EvOutputLost EventType = "task.output-lost"
	// EvSpeculate marks a speculative backup: a straggler analysis beaten
	// by a backup attempt (barrier trigger) or a quantile-trigger backup
	// launch during the filter phase.
	EvSpeculate EventType = "task.speculate"
	// EvCodeDecode marks one coded group's missing filter fragments being
	// reconstructed from k surviving units (coded k-of-n execution).
	EvCodeDecode EventType = "code.decode"
	// EvTaskKilled marks a duplicate attempt killed because another
	// attempt of the same task committed first (speculation-style dedupe
	// after a false suspicion or rejoin race).
	EvTaskKilled EventType = "task.killed"
	// EvNodeCrash / EvNodeRejoin / EvNodeSlowdown are fault deliveries.
	EvNodeCrash    EventType = "node.crash"
	EvNodeRejoin   EventType = "node.rejoin"
	EvNodeSlowdown EventType = "node.slowdown"
	// EvNodeSuspect / EvNodeClear are failure-detector belief transitions:
	// the master marking a node dead after missed heartbeats, and a beat
	// proving it alive again (rejoin or false alarm).
	EvNodeSuspect EventType = "node.suspect"
	EvNodeClear   EventType = "node.clear"
	// EvDetectLatency records, at response time, the gap between a crash
	// and the master's reaction to it (Dur = latency in simulated seconds).
	EvDetectLatency EventType = "detect.latency"
	// EvFaultPlan records the run's static fault configuration at t=0.
	EvFaultPlan EventType = "faults.plan"
	// EvRereplicate is a name-node repair pass (Count replicas re-created).
	EvRereplicate EventType = "hdfs.rereplicate"
	// EvBlockLost marks a block whose every replica is gone.
	EvBlockLost EventType = "hdfs.block-lost"
	// EvPhase is a phase barrier or transition of the pipeline.
	EvPhase EventType = "phase"
	// EvAnalysisSpan is one node's analysis-phase execution span.
	EvAnalysisSpan EventType = "analysis.span"
	// EvAnalysisRecover is a surviving node redoing a crashed node's
	// analysis share (span on the helper's track).
	EvAnalysisRecover EventType = "analysis.recover"
	// EvShuffleSpan / EvReduceSpan are per-reducer phase spans.
	EvShuffleSpan EventType = "shuffle.span"
	EvReduceSpan  EventType = "reduce.span"
	// EvPartition is the reduce-partitioner's plan audit, recorded once per
	// job when key-aware partitioning is enabled (Detail = strategy name,
	// Bytes = max planned reducer load, Count = keys split across
	// reducers). Never recorded with partitioning off, so legacy traces
	// stay byte-identical.
	EvPartition EventType = "partition.plan"
	// EvRequest is one HTTP request of the serving plane, on the Unix
	// clock: T is its start and Dur its latency in seconds, Node the
	// serving cluster node (-1 in single-process mode), Detail the route
	// the server resolved (empty when it missed every route) and Count
	// the retries before this attempt. Request carries the rest.
	EvRequest EventType = "request"
)

// Decision is the scheduler audit payload of an EvDecision event: the
// evidence the assignment was made on, at decision time.
type Decision struct {
	// Rule names the decision path that produced the assignment (e.g.
	// "algo1.argmin-local", "algo1.line12-assist", "locality.remote-fifo",
	// "retry.local-replica").
	Rule string `json:"rule"`
	// Candidates lists the block's replica-holding nodes at decision time.
	Candidates []int `json:"candidates"`
	// Local reports whether the chosen node holds a replica (locality hit).
	Local bool `json:"local"`
	// Weight is the task's scheduling weight |b ∩ s| in bytes.
	Weight int64 `json:"weight"`
	// Workload is the weight already assigned to the chosen node before
	// this decision.
	Workload int64 `json:"workload"`
	// WBar is the cluster-average target workload W̄ (total weight / N).
	WBar float64 `json:"wbar"`
}

// Request is the payload of an EvRequest event: who asked for what,
// which shard answered from which epoch, and how the cache behaved.
type Request struct {
	// ID correlates the request with client logs and slog lines.
	ID     string `json:"requestId"`
	Method string `json:"method"`
	Path   string `json:"path"`
	// Shard is the array's catalog shard, -1 when unsharded or unknown.
	Shard int `json:"shard"`
	// Epoch is the snapshot epoch the read was served from (0 when the
	// request never resolved a snapshot).
	Epoch uint64 `json:"epoch,omitempty"`
	// Status is the final HTTP status code.
	Status int `json:"status"`
	// Cache is "hit" or "miss" for cacheable reads, empty otherwise.
	Cache string `json:"cache,omitempty"`
	// Stale flags a read served below the shard's acked high-water mark.
	Stale bool `json:"stale,omitempty"`
}

// Event is one timeline entry. Node and Block are -1 when the event is not
// scoped to a node or block (0 is a valid id for both).
type Event struct {
	// Seq is the append-order sequence number (assigned by Record).
	Seq int `json:"seq"`
	// T is the time in seconds (simulated, or Unix for EvRequest); for
	// span events it is the span start and Dur its length.
	T    float64   `json:"t"`
	Type EventType `json:"type"`
	// Node is the node the event happened on, -1 when cluster-wide.
	Node int `json:"node"`
	// Block is the HDFS block involved, -1 when none.
	Block int `json:"block"`
	// Attempt is the 1-based task attempt (or reducer index for
	// shuffle/reduce spans); 0 when not applicable.
	Attempt int `json:"attempt,omitempty"`
	// Dur is the span length in seconds (0 for instants).
	Dur float64 `json:"dur,omitempty"`
	// Bytes is the data volume involved, when meaningful.
	Bytes int64 `json:"bytes,omitempty"`
	// Count is a repair/batch cardinality (e.g. replicas re-created).
	Count int `json:"count,omitempty"`
	// Local marks a data-local execution.
	Local bool `json:"local,omitempty"`
	// Detail is a free-form qualifier ("filter-end", "read-error", …).
	Detail string `json:"detail,omitempty"`
	// Decision carries the scheduler audit for EvDecision events.
	Decision *Decision `json:"decision,omitempty"`
	// Request carries the HTTP request facts for EvRequest events.
	Request *Request `json:"request,omitempty"`
}

// At returns an unscoped instant event, ready for Record.
func At(t float64, typ EventType) Event {
	return Event{T: t, Type: typ, Node: -1, Block: -1}
}

// Recorder accumulates events for one run. The zero value and nil are both
// usable; nil records nothing (the engine's fast path).
type Recorder struct {
	events []Event
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Enabled reports whether events are being kept. Callers use it to skip
// building event payloads entirely on the trace-off fast path.
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends one event, assigning its sequence number. No-op on nil.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	ev.Seq = len(r.events)
	r.events = append(r.events, ev)
}

// Len returns the number of recorded events (0 on nil).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Events returns the recorded events in append order. The slice is shared;
// callers must not mutate it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}
