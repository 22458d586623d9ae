package mapreduce

import (
	"slices"

	"datanet/internal/cluster"
	"datanet/internal/sim"
	"datanet/internal/trace"
)

// Dispatch and completion: the pull protocol of one slot, from its work
// request to its attempt's commit or retry.

// pick is the unit acquire hands a slot, and how it was chosen. It stays
// small enough to pass in registers on the per-slot path: the task itself
// is s.tasks[li], the one a picker hands out.
type pick struct {
	li         int
	rule       string // the decision rule, for the trace
	dup, quant bool   // a retry's flags (see retryItem)
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
	if s.redundant(r.li) {
		// Redundant: another attempt committed first (first-finisher-wins
		// dedupe), or the unit's k-of-n group satisfied in this very
		// delivery instant, before killGroup's generation bump. The master
		// kills it on arrival.
		detail := groupKill
		if s.done(r.li) {
			s.res.DuplicateKills++
			detail = "duplicate-completion"
		}
		s.kill(r, r.end, r.matched, detail)
		return s.serveSlot(node, slot, r.gen, now)
	}
	if r.failed {
		s.res.TransientErrors++
		s.res.NodeBusy[node] += r.end - r.start
		s.unassign(node, r, trace.Event{T: r.start, Type: trace.EvTaskFail,
			Dur: r.end - r.start, Local: r.local, Detail: "read-error"})
		if r.dup {
			// A burned duplicate is not retried: the original attempt is
			// still running, and speculation must never fail the job.
			s.dupOutstanding[r.li] = false
		} else if err := s.requeue(r.li, now, "read-error"); err != nil {
			return err
		}
	} else {
		s.commit(r)
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
	if p, ok := s.acquire(node, now); ok {
		s.idleRetries = 0
		s.dispatch(node, slot, gen, p, now)
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
		next = max(next, w)
	}
	s.postSlotFree(next, node, slot, gen)
	return nil
}

// locations returns the block's current replica holders, consulting the
// name-node once re-replication has changed the layout.
func (s *filterSim) locations(li int) []cluster.NodeID {
	if s.layoutDirty && !s.coded.isParity(li) {
		// Parity placements are static: the name-node does not track the
		// synthetic parity blocks.
		return s.cfg.FS.Locations(s.tasks[li].Block)
	}
	return s.tasks[li].Locations
}

// acquire finds the node's next task: a matured retry with a local
// replica first (failed work returns to surviving replica holders), then
// the scheduler's own plan, then any matured retry as a remote read.
func (s *filterSim) acquire(node cluster.NodeID, now float64) (pick, bool) {
	if p, ok := s.takeRetry(node, now, true); ok {
		p.rule = "retry.local-replica"
		return p, true
	}
	for {
		t, rule, ok := s.picker.Next(node)
		if !ok {
			break
		}
		li := s.byIndex[t.Index]
		s.handed[li] = true
		// A unit the picker hands out has never run, so only its group can
		// have made it redundant.
		if !s.coded.obsolete(li) {
			return pick{li: li, rule: rule}, true
		}
	}
	if p, ok := s.takeRetry(node, now, false); ok {
		p.rule = "retry.remote"
		return p, true
	}
	return pick{}, false
}

// takeRetry removes and returns the first matured retry (optionally only
// one with a replica on the requesting node). The queue is kept sorted by
// (readyAt, li), so the choice is deterministic.
func (s *filterSim) takeRetry(node cluster.NodeID, now float64, localOnly bool) (pick, bool) {
	for i := 0; i < len(s.retries); i++ {
		it := s.retries[i]
		if it.readyAt > now {
			break // sorted: nothing later is ready either
		}
		if s.redundant(it.li) {
			// A duplicate won while this retry waited (detector modes), or
			// the unit's k-of-n group satisfied; the task needs no further
			// attempts. Drop the entry.
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
		return pick{li: it.li, dup: it.dup, quant: it.quant}, true
	}
	return pick{}, false
}

// exhausted reports whether the task has spent its retry budget. Backups
// never spend it — a burned duplicate must not turn a survivable plan
// into ErrRetriesExhausted; they are bounded by their own caps (one
// outstanding per task, the speculation budgets, and the total-attempt
// decline in mayDuplicate).
func (s *filterSim) exhausted(li int) bool {
	return s.attempts[li]-s.dupTries[li] >= s.retry.MaxAttempts
}

// requeue schedules a failed task for re-execution with exponential
// backoff, enforcing the attempt cap and detecting unrecoverable blocks.
// reason qualifies the retry event ("read-error", "crash-voided",
// "output-lost").
func (s *filterSim) requeue(li int, now float64, reason string) error {
	if s.coded.abandon(li, s.exhausted(li)) {
		return nil // a parity unit out of attempts: its group can do without it
	}
	if s.replicasGone(li) {
		return &BlockFailure{Block: s.tasks[li].Block, Attempts: s.attempts[li], Cause: ErrDataLost}
	}
	if s.exhausted(li) {
		return &BlockFailure{Block: s.tasks[li].Block, Attempts: s.attempts[li], Cause: ErrRetriesExhausted}
	}
	s.res.TasksRetried++
	s.noteRetry(now, s.tasks[li].Block, s.attempts[li], reason)
	s.postRetry(retryItem{readyAt: now + s.retry.Delay(s.attempts[li]), li: li})
	return nil
}

// dispatch starts one attempt of p's unit on the node's slot.
func (s *filterSim) dispatch(nid cluster.NodeID, slot, gen int, p pick, now float64) {
	node, t, li := s.topo.Node(nid), s.tasks[p.li], p.li
	s.attempts[li]++
	attempt := s.attempts[li]
	if p.dup {
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
		attempt: attempt, failed: failed, dup: p.dup, quant: p.quant,
		node: nid, slot: slot, gen: gen,
	}
	if s.rec.Enabled() {
		cand := make([]int, len(t.Locations))
		for i, n := range t.Locations {
			cand[i] = int(n)
		}
		s.rec.Record(trace.Event{T: now, Type: trace.EvDecision,
			Node: int(nid), Block: int(t.Block), Attempt: attempt, Local: local,
			Decision: &trace.Decision{
				Rule: p.rule, Candidates: cand, Local: local,
				Weight: t.Weight, Workload: s.assigned[nid], WBar: s.wbar,
			}})
		s.rec.Record(trace.Event{T: now, Type: trace.EvTaskStart,
			Node: int(nid), Block: int(t.Block), Attempt: attempt, Local: local})
		s.assigned[nid] += t.Weight
	}
	s.track(run)
	run.ev = s.kern.Post(sim.Event{At: run.end, Kind: evAttemptDone,
		K1: int64(nid), K2: int64(slot), Payload: run})
	s.slotLive++
}

// commit records a successful attempt: the filter output now lives on the
// executing node.
func (s *filterSim) commit(r *runAttempt) {
	s.secure(r)
	s.res.NodeBusy[r.node] += r.end - r.start
	if r.local {
		s.res.LocalTasks++
	} else {
		s.res.RemoteTasks++
	}
	if s.rec.Enabled() {
		s.rec.Record(trace.Event{T: r.start, Type: trace.EvTaskFinish,
			Node: int(r.node), Block: int(r.task.Block), Attempt: r.attempt,
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
	s.coded.commit(s, r)
	s.dupOutstanding[r.li] = false
	s.maybeSettle()
}

// secure enters one output into the commit ledger, stored on r.node: its
// stat, its share of the node's analysis workload (a parity output is a
// combination of fragments, not an analyzable one, so it has none) and the
// filter barrier. An attempt's commit and a k-of-n decode both end here.
func (s *filterSim) secure(r *runAttempt) {
	s.res.Tasks = append(s.res.Tasks, TaskStat{
		Task: r.task, Node: r.node, Start: r.start, End: r.end,
		Scan: r.scan, Compute: r.compute, Matched: r.matched, Local: r.local,
		Attempt: r.attempt,
	})
	s.trackStat[r.li] = len(s.res.Tasks) - 1
	if !s.coded.isParity(r.li) {
		s.res.NodeWorkload[r.node] += r.matched
		s.nodeTasks[r.node]++
	}
	s.res.FilterEnd = max(s.res.FilterEnd, r.end)
	s.live[r.li]++
	s.doneCount++
	s.byNode[r.node] = append(s.byNode[r.node], r)
}
