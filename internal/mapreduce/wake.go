package mapreduce

import (
	"datanet/internal/cluster"
	"datanet/internal/sim"
)

// Beat and slot-wake predicates: when a parked slot wakes, when it may
// retire, and when the phase is settled so a detector's beat chains stop.

// wakeKinds is the parked-slot horizon: every event kind that can create
// new work — all but a slot's own poll (a beat's, a timeout's or a
// spec-check's handler may queue retries).
var wakeKinds = []sim.Kind{evRetryReady, evAttemptDone, evCrash, evBeat, evDetTimeout, evSpecCheck}

// workMayAppear reports whether work can still follow a drained scheduler:
// a queued retry, a crash to deliver or respond to, a detector (a false
// suspicion queues duplicates), speculation, or an in-flight read error (it
// requeues its task); k-of-n groups revive only in respond. Once false it
// stays false, as no dispatch can happen: a retired slot skips empty polls.
func (s *filterSim) workMayAppear() bool {
	return len(s.retries) > 0 || len(s.pending) > 0 || s.crashIdx < len(s.crashes) ||
		s.det != nil || s.spec != nil || s.readErrs > 0
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
		if _, rejoins := s.inj.RejoinAfter(id, now); rejoins || !s.inj.DeadAt(id, now) {
			return true
		}
	}
	return false
}
