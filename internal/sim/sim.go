// Package sim is a deterministic discrete-event simulation kernel: a
// simulated clock, an O(log n) event heap with a total, seeded-free
// ordering guarantee, and per-kind horizon queries. The MapReduce engine's
// filter phase, the fault injector and the phase pipeline all run on it;
// nothing in this package knows about blocks, nodes or schedulers.
//
// Determinism contract: event delivery order is a pure function of the
// Post sequence. Events are delivered in ascending (At, Prio, K1, K2,
// insertion order); because the insertion sequence number is the final
// tie-break, two kernels fed the same Post calls deliver byte-identical
// schedules — there is no map iteration, no randomness, and no wall-clock
// anywhere in the loop. Same inputs, same schedule, every time.
package sim

import "fmt"

// Kind identifies an event type. Kinds are small integers owned by the
// embedding domain; the kernel itself is domain-agnostic.
type Kind uint8

// Event is one scheduled occurrence on the simulated clock. At, Kind,
// Prio, K1, K2 and Payload are set by the poster; the kernel assigns the
// insertion sequence.
type Event struct {
	// At is the simulated instant the event fires, in seconds.
	At float64
	// Kind selects the handler that receives the event.
	Kind Kind
	// Prio orders events sharing an instant: lower fires first. Domains
	// use it to encode happens-before at equal times (e.g. fault delivery
	// precedes slot activity).
	Prio int8
	// K1, K2 are domain tie-break keys applied after Prio (e.g. node id
	// and slot index), making equal-time ordering meaningful rather than
	// accidental.
	K1, K2 int64
	// Payload carries the domain's data for the handler.
	Payload any

	seq       uint64
	hidden    bool
	delivered bool
}

// Hide excludes the event from NextAt horizon queries. The event is still
// delivered to its handler (which owns the staleness decision); hiding
// only declares "this instant no longer creates work". Hiding is one-way.
func (e *Event) Hide() { e.hidden = true }

// Seq is the kernel-assigned insertion sequence number (the final
// tie-break of the delivery order).
func (e *Event) Seq() uint64 { return e.seq }

// Handler consumes one delivered event. A non-nil error aborts the run.
type Handler func(*Event) error

// Observer receives every delivered event after the clock has advanced to
// its instant and before its handler runs. Tracing layers subscribe here
// instead of being threaded through every handler.
type Observer interface {
	Deliver(*Event)
}

// Clock is the simulated time source shared by the kernel and any phases
// that run after (or between) event loops. Time never moves backwards:
// the arrow of time is a kernel invariant, so AdvanceTo panics on a
// regression — that is a programming error, not a runtime condition.
type Clock struct {
	now float64
}

// NewClock returns a clock at t=0.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance moves the clock forward by d seconds and returns the new time.
// Negative d panics.
func (c *Clock) Advance(d float64) float64 {
	if d < 0 {
		panic(fmt.Sprintf("sim: Advance by negative duration %v", d))
	}
	c.now += d
	return c.now
}

// AdvanceTo moves the clock to the absolute instant t (t == Now is a
// no-op). t < Now panics.
func (c *Clock) AdvanceTo(t float64) {
	if t < c.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would move time backwards from %v", t, c.now))
	}
	c.now = t
}

// Kernel is the event loop: a priority queue of future events plus the
// clock they advance. Kind is a uint8, so handlers and horizons are plain
// arrays indexed by it — no lookup on the per-event path depends on how
// many kinds, events or actors the embedding domain has.
type Kernel struct {
	clock    *Clock
	queue    eventHeap
	seq      uint64
	handlers [256]Handler
	horizons [256]eventHeap // per-kind NextAt queues, pruned lazily
	queried  [256]bool      // kinds NextAt has asked for: only they have a horizon
	observer Observer
	stopped  bool
	nlive    int // queued, undelivered events
}

// New builds a kernel on the given clock; nil starts a fresh clock at 0.
func New(c *Clock) *Kernel {
	if c == nil {
		c = NewClock()
	}
	return &Kernel{clock: c}
}

// Now returns the current simulated time.
func (k *Kernel) Now() float64 { return k.clock.now }

// Len returns the number of queued, undelivered events.
func (k *Kernel) Len() int { return k.nlive }

// Handle registers the handler for one event kind. Kinds without a
// handler deliver silently (pure time markers).
func (k *Kernel) Handle(kind Kind, h Handler) { k.handlers[kind] = h }

// Observe installs the delivery observer (nil removes it).
func (k *Kernel) Observe(o Observer) { k.observer = o }

// Post schedules an event and returns its handle (for Hide). Posting into
// the past violates causality and panics; so does an instant that is not a
// number, which no comparison could place in the delivery order.
func (k *Kernel) Post(ev Event) *Event {
	if !(ev.At >= k.clock.now) { // also catches NaN, which "<" would let through
		panic(fmt.Sprintf("sim: Post at t=%v violates causality (now %v)", ev.At, k.clock.now))
	}
	e := &ev
	e.seq = k.seq
	k.seq++
	k.queue.push(e)
	k.nlive++
	if k.queried[e.Kind] {
		k.horizons[e.Kind].push(e)
	}
	return e
}

// NextAt returns the earliest instant at which a queued, unhidden event
// of one of the given kinds fires; ok is false when none is queued. This
// is the kernel-level replacement for domain "next wake" scans: idle
// actors ask the queue itself when new work can possibly appear. Hidden
// and delivered events are pruned here, so Hide stays O(1) and a query is
// amortized O(log n); a kind's first query builds its horizon from the
// undelivered queue in O(n log n).
func (k *Kernel) NextAt(kinds ...Kind) (float64, bool) {
	t, ok := 0.0, false
	for _, kind := range kinds {
		if !k.queried[kind] {
			k.queried[kind] = true
			for _, e := range k.queue {
				if e.Kind == kind && !e.hidden {
					k.horizons[kind].push(e)
				}
			}
		}
		if e := k.horizons[kind].live(); e != nil && (!ok || e.At < t) {
			t, ok = e.At, true
		}
	}
	return t, ok
}

// Stop ends the run after the current event's handler returns; queued
// events stay undelivered (their state can be inspected afterwards).
func (k *Kernel) Stop() { k.stopped = true }

// Run delivers events in order until the queue drains, a handler returns
// an error, or Stop is called. It may be called again after a Stop to
// resume the remaining queue.
func (k *Kernel) Run() error {
	k.stopped = false
	for len(k.queue) > 0 && !k.stopped {
		e := k.queue.pop()
		e.delivered = true
		k.nlive--
		k.clock.AdvanceTo(e.At)
		if k.observer != nil {
			k.observer.Deliver(e)
		}
		if h := k.handlers[e.Kind]; h != nil {
			if err := h(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// less is the total delivery order: (At, Prio, K1, K2, seq).
func less(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	if a.K1 != b.K1 {
		return a.K1 < b.K1
	}
	if a.K2 != b.K2 {
		return a.K2 < b.K2
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events under less, hand-rolled so
// push and pop stay boxing-free and O(log n). The main queue and every
// per-kind horizon are one implementation; because less is a total order
// (seq breaks every tie), the pop sequence is the sorted order whatever
// the heap's shape.
type eventHeap []*Event

func (h *eventHeap) push(e *Event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(e, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	*h = q
}

// live pops the hidden and delivered events off the top and returns the
// first event that is neither, nil when none is queued.
func (h *eventHeap) live() *Event {
	for len(*h) > 0 {
		if top := (*h)[0]; !top.hidden && !top.delivered {
			return top
		}
		h.pop()
	}
	return nil
}

func (h *eventHeap) pop() *Event {
	q := *h
	top := q[0]
	n := len(q) - 1
	e := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(q[r], q[c]) {
			c = r
		}
		if !less(q[c], e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = e
	return top
}
