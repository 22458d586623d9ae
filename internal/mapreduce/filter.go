package mapreduce

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"datanet/internal/cluster"
	"datanet/internal/detect"
	"datanet/internal/faults"
	"datanet/internal/hdfs"
	"datanet/internal/sched"
	"datanet/internal/sim"
	"datanet/internal/straggle"
	"datanet/internal/trace"
)

// The filter phase is a set of event handlers on the deterministic
// discrete-event kernel (internal/sim): slot-free events ask the scheduler
// for work, attempt-done events commit or retry, crash events (posted by
// the fault injector) void in-flight attempts and destroy locally stored
// filter outputs (both are re-queued and retried on surviving replica
// holders with capped, exponentially backed-off attempts in simulated
// time), transient read errors burn an attempt, and the HDFS name-node
// repairs replication after every crash so long jobs recover locality.
// With no fault plan the handlers reduce to the original pull-model
// simulation; either way the schedule is a pure function of the inputs
// (the kernel's ordering guarantee), so identical jobs replay
// bit-identically. This file holds the phase's state, event loop and kill
// path; the handlers are in dispatch.go, crash.go, speculate.go and wake.go.

// Kernel event kinds of the filter phase.
const (
	// evCrash delivers one group of simultaneous node crashes. Its
	// priority orders fault delivery before any slot activity at the same
	// instant — a task ending exactly when its node dies is voided.
	evCrash sim.Kind = iota
	// evSlotFree is one execution slot asking the scheduler for work
	// (K1=node, K2=slot; payload is the slot generation).
	evSlotFree
	// evAttemptDone is one task attempt reaching its completion time
	// (payload *runAttempt).
	evAttemptDone
	// evRetryReady marks a failed task's backoff maturing. It needs no
	// handler: parked slots consult the kernel horizon (NextAt) for the
	// earliest instant new work can appear, which these events define.
	evRetryReady
	// evBeat delivers one node's heartbeat instant (detector modes only;
	// K1 = node). Beats order after slot activity and retry markers at the
	// same instant, so a completion racing its node's condemnation wins.
	evBeat
	// evDetTimeout matures one node's suspicion timeout (detector modes;
	// K1 = node). Ordered after beats: a beat arriving exactly at the
	// timeout instant clears the node first.
	evDetTimeout
	// evSpecCheck is one quantile-speculation scan instant
	// (straggle.ModeSpeculative): the master projects every running
	// attempt's finish and launches budgeted backups for the stragglers.
	// The chain reposts itself every SpecEngine.Interval (twice the task
	// overhead) until the phase completes.
	evSpecCheck
)

// Typed failure errors.
var (
	// ErrDataLost reports that every replica of a needed block was
	// destroyed by node crashes before its filter output was secured.
	ErrDataLost = errors.New("mapreduce: block data unrecoverable")
	// ErrRetriesExhausted reports a task that exceeded its attempt cap.
	ErrRetriesExhausted = errors.New("mapreduce: task attempts exhausted")
	// ErrNoLiveNodes reports that the cluster died before the job finished.
	ErrNoLiveNodes = errors.New("mapreduce: no live nodes remain")
)

// BlockFailure is the typed error a job returns when one block can no
// longer be processed; errors.Is matches its Cause (ErrDataLost or
// ErrRetriesExhausted).
type BlockFailure struct {
	Block    hdfs.BlockID
	Attempts int
	Cause    error
}

// Error implements error.
func (e *BlockFailure) Error() string {
	return fmt.Sprintf("%v (block %d after %d attempts)", e.Cause, e.Block, e.Attempts)
}

// Unwrap makes errors.Is(err, ErrDataLost) work.
func (e *BlockFailure) Unwrap() error { return e.Cause }

// runAttempt is one execution attempt of one filter task.
type runAttempt struct {
	li         int // index into filterSim.tasks
	task       sched.Task
	start, end float64
	scan       float64
	compute    float64
	matched    int64
	local      bool
	attempt    int
	failed     bool // transient read error: the attempt burns its slot time and retries
	dup        bool // speculative duplicate of an attempt believed lost
	// quant marks a duplicate launched by the quantile trigger (its win is
	// a SpeculativeWin; a suspicion-triggered dup's win is not).
	quant bool
	// node and slot are where the attempt runs; gen guards against stale
	// completions: a crash resets the slot and bumps its generation,
	// orphaning whatever was still queued for it.
	node cluster.NodeID
	slot int
	gen  int
	// ev is the queued completion event, hidden from the kernel horizon
	// when a crash voids the attempt (a dead attempt no longer creates work).
	ev *sim.Event
}

// pendingCrash is one physically crashed node the master has yet to respond to.
type pendingCrash struct {
	node   cluster.NodeID
	at     float64 // the crash instant (the first, if it crashed again since)
	voided []int   // tasks whose attempts died with it: requeued at the response
}

// retryItem is a task awaiting re-execution after a failure.
type retryItem struct {
	readyAt float64
	li      int
	// dup marks a speculative duplicate (the original attempt may still be
	// running on a suspected node); its failure never burns a real retry.
	dup bool
	// quant marks a quantile-trigger backup; avoid is then the node the
	// straggling original runs on (the backup must land elsewhere —
	// launching it beside the straggler gains nothing).
	quant bool
	avoid cluster.NodeID
	// ev is the queued retry-ready marker, hidden once the retry is taken
	// so the kernel horizon reflects only work that can still appear.
	ev *sim.Event
}

// filterSim runs the filter phase.
type filterSim struct {
	cfg    Config
	topo   *cluster.Topology
	inj    *faults.Injector
	retry  faults.RetryPolicy
	tasks  []sched.Task
	truth  []int64 // per block position (task.Index)
	picker sched.Picker
	res    *Result

	kern *sim.Kernel
	// Per-node and per-slot state is dense. Slots are numbered node-major
	// (slot k of node n is slotBase[n]+k), so walking running upwards *is*
	// the (node, slot) order every deterministic scan promises; inflight[li]
	// lists unit li's running attempts, for the paths that concern one unit.
	slotBase  []int
	gens      []int
	running   []*runAttempt // nil: the slot is idle
	inflight  [][]*runAttempt
	byNode    [][]*runAttempt      // live committed outputs per node
	byIndex   []int                // task.Index -> li
	byBlock   map[hdfs.BlockID]int // block -> li
	attempts  []int
	dupTries  []int  // li -> how many of its attempts were duplicates
	handed    []bool // li -> the picker has handed the task out
	live      []int  // li -> its committed outputs that still exist: the commit ledger
	doneCount int    // sum of live
	trackStat []int  // li -> position of its live stat in res.Tasks, -1 when none
	retries   []retryItem
	crashes   []faults.Crash
	crashIdx  int
	// layoutDirty flips after the first crash: replica locations must then
	// be re-read from the name-node instead of the job's snapshot.
	layoutDirty bool
	nodeTasks   []int // per node
	// slotLive counts queued slot-free and attempt-done events (stale
	// generations included). When it reaches zero no slot can ever serve
	// again, so the kernel stops — undelivered crash instants then belong
	// to the analysis phase.
	slotLive int
	// idleRetries bounds consecutive declined slot requests, guarding
	// against a picker that never serves. A declined request (no task
	// while work remains) models Hadoop's heartbeat protocol: the slot
	// asks again after a heartbeat interval (delay scheduling relies on
	// this).
	idleRetries int
	readErrs    int // in-flight non-duplicate attempts with a read error: each will requeue

	// Failure handling separates *truth* (the injector's physics, applied
	// at the crash instant) from *belief* (the master's response: requeues,
	// re-replication, un-committed outputs). A detector defers the response
	// to a matured suspicion or a re-registration beat, and the gap is the
	// detection latency; the oracle (det == nil) is its zero-latency case
	// and responds inside the crash event.
	det *detect.Detector
	// health is the detector's node-health table (nil under the oracle,
	// which believes every node live and reacts to physics instead).
	health *cluster.Health
	// pending lists, in node order, the physically crashed nodes the master
	// has not yet responded to (always empty between events under the
	// oracle). The phase cannot settle while a response is outstanding: it
	// may still un-commit destroyed outputs.
	pending []pendingCrash
	// slotsDown marks nodes whose slots were physically killed by a crash;
	// the node's re-registration beat revives them (detector modes — under
	// the oracle a dead node's slots poll again at its rejoin instant).
	slotsDown []bool
	// dupOutstanding caps speculative duplicates at one per task.
	dupOutstanding []bool

	// Straggler mitigation (both nil with mitigation off; the modes are
	// mutually exclusive). spec is the quantile-trigger speculation engine:
	// a periodic evSpecCheck scan projects running attempts and launches
	// budgeted backups through the same duplicate machinery the suspicion
	// trigger uses. The k-of-n execution state is the one seam every
	// k-of-n decision goes through: its methods are safe on nil, where
	// they give the plain phase's answer.
	spec  *straggle.SpecEngine
	coded *codedState

	// Tracing state (all nil/zero when tracing is off — the fast path).
	// rec receives timeline events; assigned tracks the scheduling weight
	// handed to each node so every decision can be audited against the
	// cluster-average target W̄ (wbar), exactly the quantity Algorithm 1
	// balances.
	rec      *trace.Recorder
	assigned map[cluster.NodeID]int64
	wbar     float64
}

const maxIdleRetries = 1 << 20

// filterEndCheck, when set, sees every filter phase after its barrier kills
// (the package's tests check end-of-phase invariants there).
var filterEndCheck func(*filterSim)

func newFilterSim(cfg Config, topo *cluster.Topology, inj *faults.Injector, retry faults.RetryPolicy, tasks []sched.Task, truth []int64, picker sched.Picker, res *Result, det *detect.Detector, spec *straggle.SpecEngine, coded *codedState) *filterSim {
	s := &filterSim{
		cfg:       cfg,
		topo:      topo,
		inj:       inj,
		retry:     retry,
		tasks:     tasks,
		truth:     truth,
		picker:    picker,
		res:       res,
		det:       det,
		health:    det.Health(),
		spec:      spec,
		coded:     coded,
		kern:      sim.New(nil),
		slotBase:  make([]int, topo.N()+1),
		inflight:  make([][]*runAttempt, len(tasks)),
		byNode:    make([][]*runAttempt, topo.N()),
		byIndex:   make([]int, len(truth)), // truth is indexed by task.Index too
		byBlock:   make(map[hdfs.BlockID]int, len(tasks)),
		attempts:  make([]int, len(tasks)),
		dupTries:  make([]int, len(tasks)),
		handed:    make([]bool, len(tasks)),
		live:      make([]int, len(tasks)),
		trackStat: make([]int, len(tasks)),
		crashes:   inj.Crashes(),
		nodeTasks: make([]int, topo.N()),

		slotsDown:      make([]bool, topo.N()),
		dupOutstanding: make([]bool, len(tasks)),
	}
	for id := range cluster.NodeID(topo.N()) {
		s.slotBase[id+1] = s.slotBase[id] + topo.Node(id).Slots
	}
	s.gens = make([]int, s.slotBase[topo.N()])
	s.running = make([]*runAttempt, s.slotBase[topo.N()])
	for li, t := range tasks {
		s.byIndex[t.Index] = li
		s.byBlock[t.Block] = li
		s.trackStat[li] = -1
	}
	if cfg.Trace.Enabled() {
		s.rec = cfg.Trace
		s.assigned = make(map[cluster.NodeID]int64, topo.N())
		var total int64
		for _, t := range tasks {
			total += t.Weight
		}
		if n := topo.N(); n > 0 {
			s.wbar = float64(total) / float64(n)
		}
	}
	return s
}

// slotHandler wraps a slot-event handler with the live-slot accounting:
// once the last slot event drains, nothing can ever request work again and
// the kernel stops.
func (s *filterSim) slotHandler(inner sim.Handler) sim.Handler {
	return func(ev *sim.Event) error {
		s.slotLive--
		if err := inner(ev); err != nil {
			return err
		}
		if s.slotLive == 0 {
			s.kern.Stop()
		}
		return nil
	}
}

// phaseComplete reports whether the filter barrier has been reached:
// every task done, or every k-of-n group satisfied by k unit completions
// (the decode pass supplies whatever is missing).
func (s *filterSim) phaseComplete() bool {
	n, _ := s.coded.unfinished(s)
	return n <= 0
}

// done reports whether the unit has a live committed output. live is the
// commit ledger — +1 at a commit or a k-of-n decode, −1 where a crash is
// found to have destroyed the output; foldLedger makes any value but 0 or
// 1 show.
func (s *filterSim) done(li int) bool { return s.live[li] > 0 }

// redundant reports whether further attempts of the unit are wasted: it
// has a live output, or its k-of-n group is already satisfied.
func (s *filterSim) redundant(li int) bool { return s.done(li) || s.coded.obsolete(li) }

// replicasGone reports that no replica of the unit's block survives.
// Parity units carry static synthetic placements the name-node does not
// track, so they never report data lost (they are abandoned instead).
func (s *filterSim) replicasGone(li int) bool {
	return s.layoutDirty && !s.coded.isParity(li) && len(s.cfg.FS.Locations(s.tasks[li].Block)) == 0
}

// ord is the attempt's slot ordinal.
func (s *filterSim) ord(r *runAttempt) int { return s.slotBase[r.node] + r.slot }

// track records a dispatched attempt as running on its slot and in flight
// for its unit; untrack removes it when it ends, dies or is killed.
func (s *filterSim) track(r *runAttempt) {
	s.running[s.ord(r)] = r
	s.inflight[r.li] = append(s.inflight[r.li], r)
	if r.failed && !r.dup {
		s.readErrs++
	}
}

func (s *filterSim) untrack(r *runAttempt) {
	s.running[s.ord(r)] = nil
	s.inflight[r.li] = slices.DeleteFunc(s.inflight[r.li], func(x *runAttempt) bool { return x == r })
	if r.failed && !r.dup {
		s.readErrs--
	}
}

// postRetry queues one retry item and its kernel maturity marker, keeping
// the queue sorted by (readyAt, li); an item goes after any equal keys.
func (s *filterSim) postRetry(it retryItem) {
	it.ev = s.kern.Post(sim.Event{At: it.readyAt, Kind: evRetryReady, Prio: 1, K1: int64(it.li)})
	at := sort.Search(len(s.retries), func(i int) bool {
		q := s.retries[i]
		return q.readyAt > it.readyAt || (q.readyAt == it.readyAt && q.li > it.li)
	})
	s.retries = slices.Insert(s.retries, at, it)
}

// postSlotFree queues one slot-free request.
func (s *filterSim) postSlotFree(at float64, node cluster.NodeID, slot, gen int) {
	s.kern.Post(sim.Event{At: at, Kind: evSlotFree, K1: int64(node), K2: int64(slot), Payload: gen})
	s.slotLive++
}

// run executes the event loop until every filter task has a surviving
// output or the job fails with a typed error.
func (s *filterSim) run() error {
	if s.cfg.KernelTrace.Enabled() {
		s.kern.Observe(trace.NewKernelTap(s.cfg.KernelTrace, translateKernelEvent))
	}
	s.kern.Handle(evCrash, s.onCrash)
	s.kern.Handle(evSlotFree, s.slotHandler(s.onSlotFree))
	s.kern.Handle(evAttemptDone, s.slotHandler(s.onAttemptDone))
	if s.det != nil {
		s.det.SetHooks(detect.Hooks{Beat: s.onDetBeat, Suspect: s.onSuspect, Clear: s.onClear})
		s.det.Bind(s.kern, evBeat, evDetTimeout, 2)
	}
	if s.spec != nil {
		s.kern.Handle(evSpecCheck, s.onSpecCheck)
		s.postSpecCheck(s.spec.Interval())
	}
	for id := range cluster.NodeID(s.topo.N()) {
		for slot := 0; slot < s.topo.Node(id).Slots; slot++ {
			s.postSlotFree(0, id, slot, 0)
		}
	}
	// The injector owns the crash schedule: one kernel event per crash
	// instant, ordered before slot activity at the same time.
	s.inj.Schedule(s.kern, evCrash, -1)
	if s.slotLive > 0 {
		// The kernel stops via slot accounting or maybeSettle — under a
		// detector possibly while a crash response is still outstanding (the
		// master has not discovered the destroyed outputs yet). Resume until
		// belief catches up with truth, the phase is wedged, or the queue
		// drains.
		for {
			if err := s.kern.Run(); err != nil {
				return err
			}
			if s.settled() || s.kern.Len() == 0 {
				break
			}
		}
	}
	s.killDuplicates()
	if filterEndCheck != nil {
		filterEndCheck(s)
	}
	if n, what := s.coded.unfinished(s); n > 0 {
		return fmt.Errorf("%w: %d %s", ErrNoLiveNodes, n, what)
	}
	s.coded.decode(s)
	return nil
}

// killDuplicates sweeps attempts still in flight after the kernel stops
// whose task already committed elsewhere: the master kills the redundant
// attempts at the phase barrier (speculation-style), so they neither
// extend the makespan nor double-count work. The attempt burned its slot
// from start until the barrier cut it off (or until its own end, if
// earlier).
func (s *filterSim) killDuplicates() {
	for _, r := range s.running {
		if r == nil || !s.redundant(r.li) {
			continue
		}
		s.res.DuplicateKills++
		s.abort(r, math.Min(s.res.FilterEnd, r.end), "phase-end-kill")
	}
}

// abort kills an attempt still in flight: its completion no longer
// creates work, and it leaves its slot.
func (s *filterSim) abort(r *runAttempt, cut float64, detail string) {
	r.ev.Hide()
	s.untrack(r)
	s.kill(r, cut, 0, detail)
}

// kill retires one redundant attempt — its task committed elsewhere, or
// its k-of-n group is satisfied. The slot time burned up to cut is charged
// to the node and, with the bytes a completed attempt produced, to the
// wasted-work counters; the work itself is never double-counted.
func (s *filterSim) kill(r *runAttempt, cut float64, bytes int64, detail string) {
	s.res.NodeBusy[r.node] += cut - r.start
	if s.coded.chargesWaste(s.spec) {
		s.res.WastedTaskSeconds += cut - r.start
		s.res.WastedBytes += bytes
	}
	s.unassign(r.node, r, trace.Event{T: r.start, Type: trace.EvTaskKilled,
		Dur: cut - r.start, Local: r.local, Detail: detail})
}

// unassign records ev, the end of r's claim on node, and takes the
// attempt's weight back from the node's audited assignment (tracing only).
func (s *filterSim) unassign(node cluster.NodeID, r *runAttempt, ev trace.Event) {
	if s.rec.Enabled() {
		ev.Node, ev.Block, ev.Attempt = int(node), int(r.task.Block), r.attempt
		s.rec.Record(ev)
		s.assigned[node] -= r.task.Weight
	}
}

// noteRetry records that the unit of block b is retried after its
// attempt-th try, and why.
func (s *filterSim) noteRetry(t float64, b hdfs.BlockID, attempt int, reason string) {
	ev := trace.At(t, trace.EvTaskRetry)
	ev.Block, ev.Attempt, ev.Detail = int(b), attempt, reason
	s.rec.Record(ev)
}

// translateKernelEvent maps one kernel delivery to its trace entry (the
// kernel's keys are opaque; this is where they get their meaning back:
// K1 is the node for slot events and the task index for retry markers,
// K2 the slot).
func translateKernelEvent(e *sim.Event) (trace.Event, bool) {
	if int(e.Kind) >= len(kernelDetail) {
		return trace.Event{}, false
	}
	ev := trace.At(e.At, trace.EvKernelDeliver)
	ev.Detail = kernelDetail[e.Kind]
	switch e.Kind {
	case evSlotFree, evAttemptDone:
		ev.Node, ev.Count = int(e.K1), int(e.K2)
		if r, ok := e.Payload.(*runAttempt); ok {
			ev.Block, ev.Attempt = int(r.task.Block), r.attempt
		}
	case evBeat, evDetTimeout:
		ev.Node = int(e.K1)
	}
	return ev, true
}

// kernelDetail names each kernel event kind in the trace.
var kernelDetail = [...]string{
	evCrash: "crash", evSlotFree: "slot-free", evAttemptDone: "attempt-done", evRetryReady: "retry-ready",
	evBeat: "heartbeat", evDetTimeout: "heartbeat-timeout", evSpecCheck: "spec-check",
}
