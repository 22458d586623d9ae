package obs

import (
	"sort"
	"sync/atomic"

	"datanet/internal/trace"
)

// Ring is a bounded lock-free span buffer: writers claim a slot with one
// atomic add and publish with one atomic pointer store, so the request
// hot path never takes a lock and never allocates beyond the span
// itself. The ring keeps the most recent capacity spans; readers get a
// point-in-time snapshot ordered by sequence.
//
// A snapshot taken while writers are active may miss a span that is
// mid-publish (slot claimed, pointer not yet stored) — acceptable for a
// diagnostic surface, and each published span is observed exactly once
// per slot generation.
type Ring struct {
	slots []atomic.Pointer[trace.Event]
	mask  uint64
	next  atomic.Uint64
}

// NewRing builds a ring holding at least capacity spans (rounded up to a
// power of two so slot claiming is a mask, not a modulo).
func NewRing(capacity int) *Ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]atomic.Pointer[trace.Event], n), mask: uint64(n - 1)}
}

// Len returns the number of spans currently retained.
func (r *Ring) Len() int {
	n := r.next.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Put publishes one span, overwriting the oldest once full. The span's
// Seq is assigned here; the caller must not mutate sp afterwards.
func (r *Ring) Put(sp *trace.Event) {
	seq := r.next.Add(1) - 1
	sp.Seq = int(seq)
	r.slots[seq&r.mask].Store(sp)
}

// Snapshot copies the retained spans, ordered by sequence (oldest
// first). Spans overwritten or mid-publish during the scan are simply
// absent — the snapshot is a diagnostic view, not a transaction.
func (r *Ring) Snapshot() []trace.Event {
	out := make([]trace.Event, 0, len(r.slots))
	for i := range r.slots {
		if sp := r.slots[i].Load(); sp != nil {
			out = append(out, *sp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
