package obs

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"datanet/internal/trace"
)

// SlowLog keeps the K slowest requests seen so far. A lock-free floor
// check keeps the common case (request faster than the current K-th
// slowest) down to one atomic load; only genuinely slow requests take
// the mutex. K is small, so the guarded insert is a linear scan.
type SlowLog struct {
	// floorBits is the current admission threshold (math.Float64bits of
	// the K-th slowest duration), 0 while the log is not yet full.
	floorBits atomicFloat

	mu    sync.Mutex
	k     int
	spans []trace.Event // sorted slowest-first
}

// NewSlowLog builds a slow log of depth k.
func NewSlowLog(k int) *SlowLog {
	return &SlowLog{k: k}
}

// Offer considers one finished span for the log.
func (l *SlowLog) Offer(sp *trace.Event) {
	if sp.Dur <= l.floorBits.load() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) == l.k && sp.Dur <= l.spans[l.k-1].Dur {
		return // raced: another slow span raised the floor first
	}
	i := sort.Search(len(l.spans), func(i int) bool { return l.spans[i].Dur < sp.Dur })
	l.spans = append(l.spans, trace.Event{})
	copy(l.spans[i+1:], l.spans[i:])
	l.spans[i] = *sp
	if len(l.spans) > l.k {
		l.spans = l.spans[:l.k]
	}
	if len(l.spans) == l.k {
		l.floorBits.store(l.spans[l.k-1].Dur)
	}
}

// Top returns the log, slowest first.
func (l *SlowLog) Top() []trace.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.spans)
}

// atomicFloat is a float64 behind a uint64 atomic. Durations are
// non-negative, so the bit pattern ordering matches numeric ordering
// closely enough for an admission hint (exact ordering is re-checked
// under the mutex).
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) load() float64   { return math.Float64frombits(a.bits.Load()) }
func (a *atomicFloat) store(v float64) { a.bits.Store(math.Float64bits(v)) }
