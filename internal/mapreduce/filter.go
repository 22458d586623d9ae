package mapreduce

import (
	"cmp"
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

// This file is the filter phase, built as a set of event handlers on the
// deterministic discrete-event kernel (internal/sim): slot-free events ask
// the scheduler for work, attempt-done events commit or retry, crash
// events (posted by the fault injector) void in-flight attempts and
// destroy locally stored filter outputs (both are re-queued and retried on
// surviving replica holders with capped, exponentially backed-off attempts
// in simulated time), transient read errors burn an attempt, and the HDFS
// name-node repairs replication after every crash so long jobs recover
// locality. With no fault plan the handlers reduce to the original
// pull-model simulation; either way the schedule is a pure function of the
// inputs (the kernel's ordering guarantee), so identical jobs replay
// bit-identically.

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
	// lastDup carries the acquire path's duplicate flag to dispatch,
	// exactly like lastRule carries the decision rule; lastQuant
	// additionally marks quantile-trigger backups.
	lastDup   bool
	lastQuant bool

	// Straggler mitigation (both nil with mitigation off; the modes are
	// mutually exclusive). spec is the quantile-trigger speculation engine:
	// a periodic evSpecCheck scan projects running attempts and launches
	// budgeted backups through the same duplicate machinery the suspicion
	// trigger uses. coded is the k-of-n execution state: the task list
	// carries parity units and each group needs only k completions (see
	// coded.go).
	spec  *straggle.SpecEngine
	coded *codedState

	// Tracing state (all nil/zero when tracing is off — the fast path).
	// rec receives timeline events; lastRule carries the acquire path's
	// decision rule to dispatch; assigned tracks the scheduling weight
	// handed to each node so every decision can be audited against the
	// cluster-average target W̄ (wbar), exactly the quantity Algorithm 1
	// balances.
	rec      *trace.Recorder
	lastRule string
	assigned map[cluster.NodeID]int64
	wbar     float64
}

const maxIdleRetries = 1 << 20

// filterEndCheck, when set, sees every filter phase after its barrier kills
// (the package's tests check end-of-phase invariants there).
var filterEndCheck func(*filterSim)

// wakeKinds is the parked-slot horizon: every event kind that can create
// new work — all but a slot's own poll (a beat's, a timeout's or a
// spec-check's handler may queue retries).
var wakeKinds = []sim.Kind{evRetryReady, evAttemptDone, evCrash, evBeat, evDetTimeout, evSpecCheck}

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
// every task done, or — coded mode — every group satisfied by k unit
// completions (the decode pass supplies whatever is missing).
func (s *filterSim) phaseComplete() bool {
	if s.coded != nil {
		return s.coded.satCount == len(s.coded.layout.Groups)
	}
	return s.doneCount >= len(s.tasks)
}

// done reports whether the unit has a live committed output. live is the
// commit ledger — +1 at a commit or coded decode, −1 where a crash is found
// to have destroyed the output; foldLedger makes any value but 0 or 1 show.
func (s *filterSim) done(li int) bool { return s.live[li] > 0 }

// replicasGone reports that no replica of the unit's block survives.
// Parity units carry static synthetic placements the name-node does not
// track, so they never report data lost (they are abandoned instead).
func (s *filterSim) replicasGone(li int) bool {
	return s.layoutDirty && !s.isParity(li) && len(s.cfg.FS.Locations(s.tasks[li].Block)) == 0
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

// pendingAt finds the node's outstanding crash in s.pending (sorted by
// node): its position, or where it would be inserted.
func (s *filterSim) pendingAt(id cluster.NodeID) (int, bool) {
	return slices.BinarySearchFunc(s.pending, id, func(p pendingCrash, id cluster.NodeID) int {
		return cmp.Compare(p.node, id)
	})
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

// noteWasted charges one redundant completed attempt to the wasted-work
// counters (mitigation modes only: a detector-only run reports none).
func (s *filterSim) noteWasted(seconds float64, bytes int64) {
	if s.spec == nil && s.coded == nil {
		return
	}
	s.res.WastedTaskSeconds += seconds
	s.res.WastedBytes += bytes
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
	if s.coded != nil {
		if n := len(s.coded.layout.Groups) - s.coded.satCount; n > 0 {
			return fmt.Errorf("%w: %d coded groups unsatisfied", ErrNoLiveNodes, n)
		}
		s.codedDecode()
		return nil
	}
	if s.doneCount < len(s.tasks) {
		return fmt.Errorf("%w: %d filter tasks unfinished", ErrNoLiveNodes, len(s.tasks)-s.doneCount)
	}
	return nil
}

// settled reports that nothing further can happen: no crash response is
// outstanding and the phase is complete, or wedged — no slot can ever
// request work again.
func (s *filterSim) settled() bool {
	return len(s.pending) == 0 && (s.phaseComplete() || (s.slotLive == 0 && !s.anyRevivable()))
}

// maybeSettle stops a detector-mode kernel once it is settled — its beat
// chains would otherwise run forever. The oracle's kernel has no such
// chains: it drains the attempts still in flight and stops by slot
// accounting.
func (s *filterSim) maybeSettle() {
	if s.det != nil && s.settled() {
		s.kern.Stop()
	}
}

// anyRevivable reports whether some downed node's slots can still come
// back: the node is already alive again (its next beat revives them) or
// has a rejoin scheduled.
func (s *filterSim) anyRevivable() bool {
	now := s.kern.Now()
	for n, down := range s.slotsDown {
		if !down {
			continue
		}
		id := cluster.NodeID(n)
		if !s.inj.DeadAt(id, now) {
			return true
		}
		if _, ok := s.inj.RejoinAfter(id, now); ok {
			return true
		}
	}
	return false
}

// killDuplicates sweeps attempts still in flight after the kernel stops
// whose task already committed elsewhere: the master kills the redundant
// attempts at the phase barrier (speculation-style), so they neither
// extend the makespan nor double-count work. The attempt burned its slot
// from start until the barrier cut it off (or until its own end, if
// earlier).
func (s *filterSim) killDuplicates() {
	for _, r := range s.running {
		if r == nil || (!s.done(r.li) && !s.groupObsolete(r.li)) {
			continue
		}
		r.ev.Hide()
		s.untrack(r)
		s.res.DuplicateKills++
		s.kill(r.node, r, math.Min(s.res.FilterEnd, r.end), 0, "phase-end-kill")
	}
}

// kill retires one redundant attempt — its task committed elsewhere, or
// its coded group is satisfied. The slot time burned up to cut is charged
// to the node and, with the bytes a completed attempt produced, to the
// wasted-work counters; the work itself is never double-counted.
func (s *filterSim) kill(node cluster.NodeID, r *runAttempt, cut float64, bytes int64, detail string) {
	s.res.NodeBusy[node] += cut - r.start
	s.noteWasted(cut-r.start, bytes)
	if s.rec.Enabled() {
		s.rec.Record(trace.Event{T: r.start, Type: trace.EvTaskKilled,
			Node: int(node), Block: int(r.task.Block), Attempt: r.attempt,
			Dur: cut - r.start, Local: r.local, Detail: detail})
		s.assigned[node] -= r.task.Weight
	}
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

// postSlotFree queues one slot-free request.
func (s *filterSim) postSlotFree(at float64, node cluster.NodeID, slot, gen int) {
	s.kern.Post(sim.Event{At: at, Kind: evSlotFree, K1: int64(node), K2: int64(slot), Payload: gen})
	s.slotLive++
}

// onCrash delivers one group of simultaneous crashes: the physics of every
// victim first, then the master's response for the victims it learns of
// at once — all of them under the oracle (the zero-latency detector); under
// a detector only nodes it had already written off (a false suspicion
// turning true, or crash–rejoin–crash within one suspicion: no further
// beat will arrive to mature a new timeout), while the rest wait for
// their suspicion or re-registration beat. Once the last output is
// committed and no response can re-open the barrier, later crashes belong
// to the analysis phase (recoverAnalysis) and are left unapplied for it.
func (s *filterSim) onCrash(ev *sim.Event) error {
	if s.phaseComplete() && len(s.pending) == 0 {
		return nil
	}
	t0 := ev.At
	var group []cluster.NodeID
	for s.crashIdx < len(s.crashes) && s.crashes[s.crashIdx].At == t0 {
		group = append(group, s.crashes[s.crashIdx].Node)
		s.crashIdx++
	}
	sort.Slice(group, func(i, j int) bool { return group[i] < group[j] })
	var known []cluster.NodeID
	for _, d := range group {
		s.applyCrashPhysics(d, t0)
		if s.det == nil || s.health.Suspected(d) {
			known = append(known, d)
		}
	}
	return s.respond(known, t0)
}

// applyCrashPhysics applies the *physical* half of one node's crash:
// attempts running on the victim die, its slots stop requesting work, and
// its stored outputs are (silently, for now) destroyed. The master's
// belief — requeues, re-replication, un-committing outputs, latency
// accounting — is respond's half.
func (s *filterSim) applyCrashPhysics(d cluster.NodeID, t0 float64) {
	s.res.NodeCrashes++
	rejoinAt, rejoins := s.inj.RejoinAfter(d, t0)
	s.rec.Record(trace.Event{T: t0, Type: trace.EvNodeCrash, Node: int(d), Block: -1})
	if rejoins {
		s.rec.Record(trace.Event{T: rejoinAt, Type: trace.EvNodeRejoin, Node: int(d), Block: -1})
	}
	// Slot revival is where the modes differ in what they model. A
	// detector's master hears from a rebooted node at its re-registration
	// beat, which revives every slot (onDetBeat). Under the oracle a slot
	// that lost an attempt asks for work again at the rejoin instant, and
	// an idle slot finds its node dead on its next poll (serveSlot).
	s.slotsDown[d] = s.det != nil
	at, crashed := s.pendingAt(d)
	if !crashed { // else latency keeps counting from the first unresponded crash
		s.pending = slices.Insert(s.pending, at, pendingCrash{node: d, at: t0})
	}
	for slot := 0; slot < s.topo.Node(d).Slots; slot++ {
		ord := s.slotBase[d] + slot
		r := s.running[ord]
		if r == nil && s.det == nil {
			continue
		}
		s.gens[ord]++ // every queued event of the slot is now stale
		if r == nil {
			continue
		}
		if s.det == nil && rejoins {
			s.postSlotFree(rejoinAt, d, slot, s.gens[ord])
		}
		r.ev.Hide() // a dead attempt's end no longer creates work
		s.untrack(r)
		if s.rec.Enabled() {
			ve := trace.Event{T: t0, Type: trace.EvTaskVoided,
				Node: int(d), Block: int(r.task.Block), Attempt: r.attempt}
			s.rec.Record(ve)
			s.assigned[d] -= r.task.Weight
		}
		if !s.done(r.li) {
			s.pending[at].voided = append(s.pending[at].voided, r.li)
		}
	}
}

// believedDead is the one predicate behind every placement of work or
// bytes: the master will not use a node at time t that is physically down
// (a copy or task aimed at a corpse fails at once) or that the health
// table suspects — even falsely. Under the oracle the table is nil and
// this is physics; under a detector a physically dead node is always
// pending or suspected when a handler runs (crashes are delivered first),
// so the physical half adds nothing there until the filter kernel stops.
func (s *filterSim) believedDead(id cluster.NodeID, t float64) bool {
	return s.inj.DeadAt(id, t) || s.health.Suspected(id)
}

// noteLatency reports one crash→response gap under a detector; the
// oracle's is zero by construction and not reported.
func (s *filterSim) noteLatency(d cluster.NodeID, crashAt, respAt float64) {
	if s.det == nil {
		return
	}
	s.res.DetectionLatency = append(s.res.DetectionLatency, respAt-crashAt)
	if s.rec.Enabled() {
		ev := trace.At(respAt, trace.EvDetectLatency)
		ev.Node = int(d)
		ev.Dur = respAt - crashAt
		s.rec.Record(ev)
	}
}

// recordRepair records the name-node's repair pass at t: a summary of the
// replicas it re-created and one event per block it found lost.
func (s *filterSim) recordRepair(t float64, moved int, lost []hdfs.BlockID) {
	if moved > 0 {
		s.rec.Record(trace.Event{T: t, Type: trace.EvRereplicate, Node: -1, Block: -1, Count: moved, Detail: "crash-repair"})
	}
	for _, id := range lost {
		s.rec.Record(trace.Event{T: t, Type: trace.EvBlockLost, Node: -1, Block: int(id)})
	}
}

// respond is the master's reaction to nodes it now believes dead (or, for
// a re-registration, knows rebooted): the name-node repairs replication —
// once for the whole group, so blocks losing all replicas at once are
// detected as unrecoverable — the attempts and outputs lost with the
// nodes are requeued, and the crash→response gap is the detection
// latency.
func (s *filterSim) respond(group []cluster.NodeID, t float64) error {
	if len(group) == 0 {
		return nil
	}
	s.layoutDirty = true
	// The repair pass excludes every node that cannot hold replicas right
	// now: the ones the master believes dead plus crashed nodes whose
	// response is pending (the group included) — a copy targeted at a corpse
	// fails at the transport layer immediately, so the name-node skips them
	// without needing to have suspected them yet.
	var dead []cluster.NodeID
	for id := range cluster.NodeID(s.topo.N()) {
		if _, pending := s.pendingAt(id); pending || s.believedDead(id, t) {
			dead = append(dead, id)
		}
	}
	for _, d := range group {
		at, _ := s.pendingAt(d)
		s.noteLatency(d, s.pending[at].at, t)
	}
	moved, lost := s.cfg.FS.FailNodes(dead)
	s.recordRepair(t, moved, lost)
	s.res.ReplicasRepaired += moved
	for _, d := range group {
		// The attempts that died with the node are requeued now — the master
		// just learned they will never report back. The rest of the group's
		// stay pending: a coded group re-opened below leaves them their units.
		at, _ := s.pendingAt(d)
		for _, li := range s.pending[at].voided {
			if s.done(li) {
				continue // a duplicate finished the task in the meantime
			}
			if err := s.requeue(li, t, "crash-voided"); err != nil {
				return err
			}
		}
		s.pending = slices.Delete(s.pending, at, at+1)
		// Committed outputs stored on the victim are discovered destroyed.
		for _, r := range s.byNode[d] {
			if s.trackStat[r.li] >= 0 {
				s.res.Tasks[s.trackStat[r.li]].Lost = true
				s.trackStat[r.li] = -1
			}
			if !s.isParity(r.li) {
				s.res.NodeWorkload[d] -= r.matched
				s.nodeTasks[d]--
			}
			s.live[r.li]--
			s.doneCount--
			if s.coded != nil {
				s.codedUncommit(r.li, t)
			}
			s.res.LostOutputs++
			if s.rec.Enabled() {
				le := trace.Event{T: t, Type: trace.EvOutputLost,
					Node: int(d), Block: int(r.task.Block), Attempt: r.attempt,
					Bytes: r.matched}
				s.rec.Record(le)
				s.assigned[d] -= r.task.Weight
			}
			if err := s.requeue(r.li, t, "output-lost"); err != nil {
				return err
			}
		}
		s.byNode[d] = nil
	}
	// Blocks with no surviving replica are gone for good; the job fails
	// (typed) unless their filter output survives on a live node or — coded
	// mode — the block's group is satisfied (its fragment is
	// reconstructable from the code). Blocks skipped by the meta-data are
	// not needed at all.
	for _, b := range lost {
		if li, ok := s.byBlock[b]; ok && !s.done(li) && !s.groupObsolete(li) {
			return &BlockFailure{Block: b, Attempts: s.attempts[li], Cause: ErrDataLost}
		}
	}
	return nil
}

// onDetBeat is the detector's Beat hook. A beat from a node with an
// outstanding crash response is its re-registration: the node rejoined
// (perhaps before the timeout ever matured) and its empty state is how
// the master learns what died with it. Downed slots revive here — the
// rejoined tracker starts requesting work again.
func (s *filterSim) onDetBeat(id cluster.NodeID, t float64) error {
	if _, crashed := s.pendingAt(id); crashed {
		if err := s.respond([]cluster.NodeID{id}, t); err != nil {
			return err
		}
	}
	if s.slotsDown[id] {
		s.slotsDown[id] = false
		for slot := 0; slot < s.topo.Node(id).Slots; slot++ {
			ord := s.slotBase[id] + slot
			s.gens[ord]++
			s.postSlotFree(t, id, slot, s.gens[ord])
		}
	}
	s.maybeSettle()
	return nil
}

// onSuspect is the detector's Suspect hook: the master now believes the
// node dead. For a real crash this is the (late) response; for a false
// suspicion the node is alive and still computing — the master stops
// assigning it work and speculates duplicates of whatever it believes
// lost in flight, first finisher wins.
func (s *filterSim) onSuspect(id cluster.NodeID, t float64) error {
	s.rec.Record(trace.Event{T: t, Type: trace.EvNodeSuspect, Node: int(id), Block: -1})
	if _, crashed := s.pendingAt(id); crashed {
		if err := s.respond([]cluster.NodeID{id}, t); err != nil {
			return err
		}
	} else {
		s.res.FalseSuspicions++
		for _, r := range s.running[s.slotBase[id]:s.slotBase[id+1]] {
			if r != nil {
				s.requeueDup(r.li, t)
			}
		}
	}
	s.maybeSettle()
	return nil
}

// onClear is the detector's Clear hook: a beat proved a suspected node
// alive (rejoin or false alarm); it becomes assignable again.
func (s *filterSim) onClear(id cluster.NodeID, t float64) error {
	s.rec.Record(trace.Event{T: t, Type: trace.EvNodeClear, Node: int(id), Block: -1})
	return nil
}

// requeueDup schedules a speculative duplicate of a task the master
// believes lost on a suspected-but-alive node. Unlike requeue it never
// fails the job: at the attempt cap (or with no replica to read) the
// master simply declines to speculate — the original attempt is still
// physically running and may yet finish.
func (s *filterSim) requeueDup(li int, t float64) {
	if s.done(li) || s.dupOutstanding[li] {
		return
	}
	if s.attempts[li] >= s.retry.MaxAttempts || s.replicasGone(li) {
		return
	}
	s.dupOutstanding[li] = true
	s.res.TasksRetried++
	if s.rec.Enabled() {
		ev := trace.At(t, trace.EvTaskRetry)
		ev.Block = int(s.tasks[li].Block)
		ev.Attempt = s.attempts[li]
		ev.Detail = "suspect-duplicate"
		s.rec.Record(ev)
	}
	s.postRetry(retryItem{readyAt: t + s.retry.Delay(s.attempts[li]), li: li, dup: true})
}

// postSpecCheck queues the next quantile-speculation scan. Priority 3
// orders the scan after slot activity, beats and timeouts at the same
// instant, so it sees the freshest attempt state.
func (s *filterSim) postSpecCheck(at float64) {
	s.kern.Post(sim.Event{At: at, Kind: evSpecCheck, Prio: 3})
}

// onSpecCheck is one quantile-trigger scan: project every running
// attempt's finish (the attempt's exact end — the limiting case of
// perfect progress reports), ask the engine which are stragglers, and
// launch budgeted backups. The chain reposts itself until the phase
// completes or no slot can ever serve again.
func (s *filterSim) onSpecCheck(ev *sim.Event) error {
	if s.phaseComplete() || s.slotLive == 0 {
		return nil // chain ends; nothing left to speculate for
	}
	now := ev.At
	for _, li := range s.spec.Decide(now, s.projections()) {
		s.launchQuantileDup(li, now)
	}
	s.postSpecCheck(now + s.spec.Interval())
	return nil
}

// projections lists the running attempts of unfinished units in (node,
// slot) order, each projected to finish at its exact end.
func (s *filterSim) projections() []straggle.Projection {
	projs := make([]straggle.Projection, 0, len(s.running))
	for _, r := range s.running {
		if r != nil && !s.done(r.li) {
			projs = append(projs, straggle.Projection{Unit: r.li, Projected: r.end})
		}
	}
	return projs
}

// slowestNode is the node running the unit's slowest current attempt (the
// first in (node, slot) order among equals), -1 when none is in flight.
func (s *filterSim) slowestNode(li int) cluster.NodeID {
	avoid, worst := cluster.NodeID(-1), (*runAttempt)(nil)
	for _, r := range s.inflight[li] {
		if worst == nil || r.end > worst.end || (r.end == worst.end && s.ord(r) < s.ord(worst)) {
			avoid, worst = r.node, r
		}
	}
	return avoid
}

// launchQuantileDup launches one quantile-trigger backup: a duplicate
// retry, ready immediately (a straggler needs the backup now, not after
// a failure backoff), that must land away from the straggling original.
// Like the suspicion trigger it never fails the job — at the attempt
// cap, with replicas gone, or over budget the master simply declines.
func (s *filterSim) launchQuantileDup(li int, now float64) {
	if s.done(li) || s.dupOutstanding[li] || !s.spec.Allow(li) {
		return
	}
	if s.attempts[li] >= s.retry.MaxAttempts || s.replicasGone(li) {
		return
	}
	avoid := s.slowestNode(li)
	s.dupOutstanding[li] = true
	s.spec.NoteLaunch(li)
	s.res.SpeculativeLaunches++
	if s.rec.Enabled() {
		ev := trace.At(now, trace.EvSpeculate)
		ev.Block = int(s.tasks[li].Block)
		ev.Node = int(avoid)
		ev.Attempt = s.attempts[li]
		ev.Detail = "quantile-trigger"
		s.rec.Record(ev)
	}
	s.postRetry(retryItem{readyAt: now, li: li, dup: true, quant: true, avoid: avoid})
}

// onSlotFree serves one slot's work request unless the slot was reset by a
// crash since the event was queued (stale generation).
func (s *filterSim) onSlotFree(ev *sim.Event) error {
	node, slot := cluster.NodeID(ev.K1), int(ev.K2)
	gen := ev.Payload.(int)
	if gen != s.gens[s.slotBase[node]+slot] {
		return nil // the slot was reset by a crash; this event is stale
	}
	return s.serveSlot(node, slot, gen, ev.At)
}

// onAttemptDone resolves one attempt (commit, or burn-and-retry on a read
// error) and immediately serves the freed slot.
func (s *filterSim) onAttemptDone(ev *sim.Event) error {
	r := ev.Payload.(*runAttempt)
	if r.gen != s.gens[s.ord(r)] {
		return nil // the slot was reset by a crash; this event is stale
	}
	node, slot, now := r.node, r.slot, ev.At
	s.untrack(r)
	if s.done(r.li) || s.groupObsolete(r.li) {
		// Redundant: another attempt committed first (first-finisher-wins
		// dedupe), or — coded — the unit's group satisfied in this very
		// delivery instant, before killGroup's generation bump. The master
		// kills it on arrival.
		detail := "coded-k-of-n"
		if s.done(r.li) {
			s.res.DuplicateKills++
			detail = "duplicate-completion"
		}
		s.kill(node, r, r.end, r.matched, detail)
		return s.serveSlot(node, slot, r.gen, now)
	}
	if r.failed {
		s.res.TransientErrors++
		s.res.NodeBusy[node] += r.end - r.start
		if s.rec.Enabled() {
			fe := trace.Event{T: r.start, Type: trace.EvTaskFail,
				Node: int(node), Block: int(r.task.Block),
				Attempt: r.attempt, Dur: r.end - r.start, Local: r.local,
				Detail: "read-error"}
			s.rec.Record(fe)
			s.assigned[node] -= r.task.Weight
		}
		if r.dup {
			// A burned duplicate is not retried: the original attempt is
			// still running, and speculation must never fail the job.
			s.dupOutstanding[r.li] = false
		} else if err := s.requeue(r.li, now, "read-error"); err != nil {
			return err
		}
	} else {
		s.commit(node, r)
	}
	return s.serveSlot(node, slot, r.gen, now)
}

// serveSlot is the pull protocol for one freed slot: retire it if its node
// is dead (waking again at rejoin), the phase is complete or no work can
// appear any more, dispatch the next task if the scheduler serves one,
// otherwise park until the kernel horizon says new work can appear.
func (s *filterSim) serveSlot(node cluster.NodeID, slot, gen int, now float64) error {
	if s.inj.DeadAt(node, now) {
		if s.det != nil {
			return nil // physics downed these slots; re-registration revives them
		}
		if rj, ok := s.inj.RejoinAfter(node, now); ok {
			s.postSlotFree(rj, node, slot, gen)
		}
		return nil // permanently dead: the slot retires
	}
	if s.health.Suspected(node) {
		// The master believes this node dead (false suspicion): it refuses
		// to hand it work until a beat clears it. The slot polls again.
		s.postSlotFree(now+s.det.Interval(), node, slot, gen)
		return nil
	}
	if s.phaseComplete() && len(s.pending) == 0 {
		return nil // filter phase complete: the slot retires
	}
	if t, li, ok := s.acquire(node, now); ok {
		s.idleRetries = 0
		s.dispatch(node, slot, gen, t, li, now)
		return nil
	}
	if s.idleRetries >= maxIdleRetries {
		return nil
	}
	s.idleRetries++
	next := now + s.cfg.TaskOverhead // heartbeat interval
	if s.picker.Remaining() == 0 {
		if !s.workMayAppear() {
			return nil // every later poll would find nothing: the slot retires
		}
		// Nothing to pull; sleep until the kernel's horizon — the
		// earliest queued retry maturity, in-flight completion, crash or
		// (detector modes) beat/timeout whose response may requeue work —
		// since only those can create work for this slot.
		w, ok := s.kern.NextAt(wakeKinds...)
		if !ok {
			return nil // nothing can ever create work for this slot
		}
		if w > next {
			next = w
		}
	}
	s.postSlotFree(next, node, slot, gen)
	return nil
}

// workMayAppear reports whether work can still follow a drained scheduler:
// a queued retry, a crash to deliver or respond to, a detector (a false
// suspicion queues duplicates), speculation, or an in-flight read error (it
// requeues its task); coded groups revive only in respond. Once false it
// stays false, as no dispatch can happen: a retired slot skips empty polls.
func (s *filterSim) workMayAppear() bool {
	return len(s.retries) > 0 || len(s.pending) > 0 || s.crashIdx < len(s.crashes) ||
		s.det != nil || s.spec != nil || s.readErrs > 0
}

// locations returns the block's current replica holders, consulting the
// name-node once re-replication has changed the layout.
func (s *filterSim) locations(li int) []cluster.NodeID {
	if s.layoutDirty && !s.isParity(li) {
		// Parity placements are static: the name-node does not track the
		// synthetic coded blocks.
		return s.cfg.FS.Locations(s.tasks[li].Block)
	}
	return s.tasks[li].Locations
}

// acquire finds the node's next task: a matured retry with a local
// replica first (failed work returns to surviving replica holders), then
// the scheduler's own plan, then any matured retry as a remote read.
func (s *filterSim) acquire(node cluster.NodeID, now float64) (sched.Task, int, bool) {
	s.lastDup = false
	s.lastQuant = false
	if li, ok := s.takeRetry(node, now, true); ok {
		s.lastRule = "retry.local-replica"
		return s.tasks[li], li, true
	}
	for {
		t, rule, ok := s.picker.Next(node)
		if !ok {
			break
		}
		li := s.byIndex[t.Index]
		s.handed[li] = true
		if s.groupObsolete(li) {
			continue // coded: the unit's group is already satisfied
		}
		s.lastRule = rule
		return t, li, true
	}
	if li, ok := s.takeRetry(node, now, false); ok {
		s.lastRule = "retry.remote"
		return s.tasks[li], li, true
	}
	return sched.Task{}, 0, false
}

// takeRetry removes and returns the first matured retry (optionally only
// one with a replica on the requesting node). The queue is kept sorted by
// (readyAt, li), so the choice is deterministic.
func (s *filterSim) takeRetry(node cluster.NodeID, now float64, localOnly bool) (int, bool) {
	for i := 0; i < len(s.retries); i++ {
		it := s.retries[i]
		if it.readyAt > now {
			break // sorted: nothing later is ready either
		}
		if s.done(it.li) || s.groupObsolete(it.li) {
			// A duplicate won while this retry waited (detector modes), or
			// — coded mode — the unit's group satisfied; the task needs no
			// further attempts. Drop the entry.
			it.ev.Hide()
			s.retries = append(s.retries[:i], s.retries[i+1:]...)
			i--
			continue
		}
		if it.quant && it.avoid == node {
			continue // a backup beside the straggler gains nothing
		}
		if localOnly && !slices.Contains(s.locations(it.li), node) {
			continue
		}
		it.ev.Hide() // taken: its maturity no longer creates work
		s.retries = append(s.retries[:i], s.retries[i+1:]...)
		s.lastDup = it.dup
		s.lastQuant = it.quant
		return it.li, true
	}
	return 0, false
}

// exhausted reports whether the task has spent its retry budget. Backups
// never spend it — a burned duplicate must not turn a survivable plan
// into ErrRetriesExhausted; they are bounded by their own caps (one
// outstanding per task, the speculation budgets, and the total-attempt
// decline in requeueDup and launchQuantileDup).
func (s *filterSim) exhausted(li int) bool {
	return s.attempts[li]-s.dupTries[li] >= s.retry.MaxAttempts
}

// requeue schedules a failed task for re-execution with exponential
// backoff, enforcing the attempt cap and detecting unrecoverable blocks.
// reason qualifies the retry event ("read-error", "crash-voided",
// "output-lost").
func (s *filterSim) requeue(li int, now float64, reason string) error {
	if s.isParity(li) && s.exhausted(li) {
		// Parity units are pure redundancy: running out of attempts
		// abandons the unit instead of failing the job — the group can
		// still be satisfied by its other units.
		s.coded.abandoned[li] = true
		return nil
	}
	if s.replicasGone(li) {
		return &BlockFailure{Block: s.tasks[li].Block, Attempts: s.attempts[li], Cause: ErrDataLost}
	}
	if s.exhausted(li) {
		return &BlockFailure{Block: s.tasks[li].Block, Attempts: s.attempts[li], Cause: ErrRetriesExhausted}
	}
	s.res.TasksRetried++
	if s.rec.Enabled() {
		ev := trace.At(now, trace.EvTaskRetry)
		ev.Block = int(s.tasks[li].Block)
		ev.Attempt = s.attempts[li]
		ev.Detail = reason
		s.rec.Record(ev)
	}
	s.postRetry(retryItem{readyAt: now + s.retry.Delay(s.attempts[li]), li: li})
	return nil
}

// dispatch starts one attempt on the node's slot.
func (s *filterSim) dispatch(nid cluster.NodeID, slot, gen int, t sched.Task, li int, now float64) {
	node := s.topo.Node(nid)
	s.attempts[li]++
	attempt := s.attempts[li]
	if s.lastDup {
		s.dupTries[li]++
	}
	t.Locations = s.locations(li)
	local := slices.Contains(t.Locations, nid)
	matched := s.truth[t.Index]
	scan := float64(t.Bytes) / s.inj.DiskRate(nid, node.DiskRate)
	if !local {
		// Remote read: full NIC rate within the rack; cross-rack links
		// are oversubscribed by crossRackPenalty (classic two-tier
		// datacenter fabric). The read is rack-local when any replica
		// shares the requester's rack.
		rate := s.inj.NetRate(nid, node.NetRate)
		if !sameRackAsAnyReplica(s.topo, t, nid) {
			rate /= crossRackPenalty
		}
		scan += float64(t.Bytes) / rate
	}
	failed := s.inj.ReadFails(int(t.Block), int(nid), attempt)
	compute := 0.0
	if !failed {
		compute = float64(matched) * filterCostFactor / s.inj.CPURate(nid, node.CPURate)
	}
	run := &runAttempt{
		li: li, task: t, start: now, end: now + s.cfg.TaskOverhead + scan + compute,
		scan: scan, compute: compute, matched: matched, local: local,
		attempt: attempt, failed: failed, dup: s.lastDup, quant: s.lastQuant,
		node: nid, slot: slot, gen: gen,
	}
	if s.rec.Enabled() {
		cand := make([]int, len(t.Locations))
		for i, n := range t.Locations {
			cand[i] = int(n)
		}
		dec := trace.Event{T: now, Type: trace.EvDecision,
			Node: int(nid), Block: int(t.Block), Attempt: attempt, Local: local,
			Decision: &trace.Decision{
				Rule: s.lastRule, Candidates: cand, Local: local,
				Weight: t.Weight, Workload: s.assigned[nid], WBar: s.wbar,
			}}
		s.rec.Record(dec)
		st := trace.Event{T: now, Type: trace.EvTaskStart,
			Node: int(nid), Block: int(t.Block), Attempt: attempt, Local: local}
		s.rec.Record(st)
		s.assigned[nid] += t.Weight
	}
	s.track(run)
	run.ev = s.kern.Post(sim.Event{At: run.end, Kind: evAttemptDone,
		K1: int64(nid), K2: int64(slot), Payload: run})
	s.slotLive++
}

// commit records a successful attempt: the filter output now lives on the
// executing node.
func (s *filterSim) commit(id cluster.NodeID, r *runAttempt) {
	s.res.Tasks = append(s.res.Tasks, TaskStat{
		Task: r.task, Node: id, Start: r.start, End: r.end,
		Scan: r.scan, Compute: r.compute, Matched: r.matched, Local: r.local,
		Attempt: r.attempt,
	})
	s.trackStat[r.li] = len(s.res.Tasks) - 1
	s.res.NodeBusy[id] += r.end - r.start
	if !s.isParity(r.li) {
		// Parity outputs are coded blobs, not analyzable sub-dataset
		// fragments: they never feed the analysis-phase workload.
		s.res.NodeWorkload[id] += r.matched
		s.nodeTasks[id]++
	}
	if r.local {
		s.res.LocalTasks++
	} else {
		s.res.RemoteTasks++
	}
	if r.end > s.res.FilterEnd {
		s.res.FilterEnd = r.end
	}
	s.live[r.li]++
	s.doneCount++
	s.byNode[id] = append(s.byNode[id], r)
	if s.rec.Enabled() {
		s.rec.Record(trace.Event{T: r.start, Type: trace.EvTaskFinish,
			Node: int(id), Block: int(r.task.Block), Attempt: r.attempt,
			Dur: r.end - r.start, Bytes: r.matched, Local: r.local})
	}
	if r.quant {
		// A quantile-trigger backup beat its straggling original.
		s.res.SpeculativeWins++
	}
	if s.spec != nil {
		// Every real completion anchors the quantile.
		s.spec.ObserveFinish(r.end)
	}
	if s.coded != nil {
		s.codedCommit(id, r)
	}
	s.dupOutstanding[r.li] = false
	s.maybeSettle()
}

// recoverAnalysis handles crashes that strike after the filter barrier:
// the victim's locally stored filtered fragments are destroyed
// mid-analysis, so a surviving node re-reads the source blocks (remote
// scan), re-filters them, and re-runs their analysis serially after its
// own work. durations is mutated in place; analysisStart anchors the
// phase's timeline.
func (s *filterSim) recoverAnalysis(analysisStart float64, durations map[cluster.NodeID]float64) error {
	for s.crashIdx < len(s.crashes) {
		c := s.crashes[s.crashIdx]
		s.crashIdx++
		d := c.Node
		s.layoutDirty = true
		// A detector's master learns of the crash only when the victim's
		// beat chain goes quiet past its timeout — recovery cannot start
		// before that (the oracle, a nil detector, responds at the crash
		// instant).
		respAt := s.det.ResponseAt(d, c.At)
		if s.rec.Enabled() {
			ev := trace.At(c.At, trace.EvNodeCrash)
			ev.Node = int(d)
			ev.Detail = "analysis-phase"
			s.rec.Record(ev)
		}
		s.noteLatency(d, c.At, respAt)
		var dead []cluster.NodeID
		for id := range cluster.NodeID(s.topo.N()) {
			if s.believedDead(id, c.At) {
				dead = append(dead, id)
			}
		}
		moved, lostBlocks := s.cfg.FS.FailNodes(dead)
		s.recordRepair(c.At, moved, lostBlocks)
		s.res.ReplicasRepaired += moved
		s.res.NodeCrashes++
		if c.At >= analysisStart+durations[d] {
			// The node finished its analysis (and holds no pending filter
			// fragments); its map output is already accounted for. Reducer
			// placement later avoids dead nodes.
			continue
		}
		w := s.res.NodeWorkload[d]
		nt := s.nodeTasks[d]
		if w == 0 && nt == 0 {
			continue // nothing stored here (e.g. it crashed during filter too)
		}
		// The fragments' source blocks must still exist somewhere.
		for _, r := range s.byNode[d] {
			if slices.Contains(lostBlocks, r.task.Block) {
				return &BlockFailure{Block: r.task.Block, Attempts: s.attempts[r.li], Cause: ErrDataLost}
			}
		}
		var blockBytes int64
		for _, r := range s.byNode[d] {
			s.live[r.li]-- // destroyed with d; the helper's redo commits it again
			if s.isParity(r.li) {
				continue // parity blobs are not part of the analysis share
			}
			blockBytes += r.task.Bytes
		}
		// Recovery node: the node believed live that frees up earliest.
		helper := cluster.NodeID(-1)
		for id := range cluster.NodeID(s.topo.N()) {
			if s.believedDead(id, c.At) {
				continue
			}
			if helper == -1 || durations[id] < durations[helper] ||
				(durations[id] == durations[helper] && id < helper) {
				helper = id
			}
		}
		if helper == -1 {
			return fmt.Errorf("%w: analysis workload of node %d unrecoverable", ErrNoLiveNodes, d)
		}
		hn := s.topo.Node(helper)
		redo := float64(nt)*s.cfg.TaskOverhead +
			float64(blockBytes)/s.inj.NetRate(helper, hn.NetRate) +
			float64(w)*filterCostFactor/s.inj.CPURate(helper, hn.CPURate) +
			float64(w)*s.cfg.App.CostFactor()/s.inj.CPURate(helper, hn.CPURate)
		start := respAt // the helper cannot react before the master knows
		if analysisStart+durations[helper] > start {
			start = analysisStart + durations[helper]
		}
		durations[helper] = start + redo - analysisStart
		if trunc := c.At - analysisStart; trunc < durations[d] {
			if trunc < 0 {
				trunc = 0
			}
			durations[d] = trunc
		}
		if s.rec.Enabled() {
			for _, r := range s.byNode[d] {
				le := trace.Event{T: c.At, Type: trace.EvOutputLost,
					Node: int(d), Block: int(r.task.Block), Attempt: r.attempt,
					Bytes: r.matched}
				s.rec.Record(le)
				re := trace.At(c.At, trace.EvTaskRetry)
				re.Block = int(r.task.Block)
				re.Attempt = r.attempt
				re.Detail = "analysis-recover"
				s.rec.Record(re)
			}
			rc := trace.Event{T: start, Type: trace.EvAnalysisRecover,
				Node: int(helper), Dur: redo, Bytes: w, Count: nt,
				Detail: fmt.Sprintf("redo node %d share", d), Block: -1}
			s.rec.Record(rc)
		}
		s.res.NodeWorkload[helper] += w
		s.res.NodeWorkload[d] = 0
		s.nodeTasks[helper] += nt
		s.nodeTasks[d] = 0
		for _, r := range s.byNode[d] {
			s.live[r.li]++
			s.byNode[helper] = append(s.byNode[helper], r)
		}
		s.byNode[d] = nil
		s.res.TasksRetried += nt
		s.res.LostOutputs += nt
	}
	return nil
}
