package sim

import (
	"math/rand"
	"testing"
)

// modelEvent mirrors one posted event in the naive reference model.
type modelEvent struct {
	at        float64
	kind      Kind
	prio      int8
	k1, k2    int64
	seq       uint64
	hidden    bool
	delivered bool
}

// model is the kernel's contract written the slow way: an unordered slice
// scanned in full for every answer.
type model struct {
	evs []*modelEvent
}

func (m *model) before(a, b *modelEvent) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.prio != b.prio:
		return a.prio < b.prio
	case a.k1 != b.k1:
		return a.k1 < b.k1
	case a.k2 != b.k2:
		return a.k2 < b.k2
	}
	return a.seq < b.seq
}

// next is the undelivered event the kernel must deliver next.
func (m *model) next() *modelEvent {
	var best *modelEvent
	for _, e := range m.evs {
		if !e.delivered && (best == nil || m.before(e, best)) {
			best = e
		}
	}
	return best
}

func (m *model) len() int {
	n := 0
	for _, e := range m.evs {
		if !e.delivered {
			n++
		}
	}
	return n
}

func (m *model) nextAt(kinds []Kind) (float64, bool) {
	t, ok := 0.0, false
	for _, e := range m.evs {
		if e.delivered || e.hidden {
			continue
		}
		for _, k := range kinds {
			if e.kind == k && (!ok || e.at < t) {
				t, ok = e.at, true
			}
		}
	}
	return t, ok
}

// TestKernelAgainstModel drives Post/Hide/NextAt/Len/Stop/resume from
// outside the loop and from inside handlers, over several kinds (one
// without a handler) with equal instants and equal keys common, and checks
// every delivery and every answer against the model.
func TestKernelAgainstModel(t *testing.T) {
	const (
		kinds   = 5 // kind 4 has no handler: a pure time marker
		minOps  = 12000
		maxLive = 400
	)
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		k := New(nil)
		m := &model{}
		var handles []*Event
		ops, stopAfter := 0, 0

		post := func() {
			at := k.Now() + float64(rng.Intn(8))*0.25 // ties, and "now" itself, are common
			ev := Event{At: at, Kind: Kind(rng.Intn(kinds)), Prio: int8(rng.Intn(3) - 1),
				K1: int64(rng.Intn(3)), K2: int64(rng.Intn(2))}
			h := k.Post(ev)
			handles = append(handles, h)
			m.evs = append(m.evs, &modelEvent{at: at, kind: ev.Kind, prio: ev.Prio, k1: ev.K1, k2: ev.K2, seq: h.Seq()})
			if h.Seq() != uint64(len(m.evs)-1) {
				t.Fatalf("seed %d: Post assigned seq %d, want %d", seed, h.Seq(), len(m.evs)-1)
			}
			ops++
		}
		hide := func() {
			if len(handles) == 0 {
				return
			}
			i := rng.Intn(len(handles)) // delivered and already-hidden handles included
			handles[i].Hide()
			m.evs[i].hidden = true
			ops++
		}
		query := func() {
			var ks []Kind
			for kind := 0; kind <= kinds; kind++ { // kind == kinds is never posted
				if rng.Intn(2) == 0 {
					ks = append(ks, Kind(kind))
				}
			}
			got, gotOK := k.NextAt(ks...)
			want, wantOK := m.nextAt(ks)
			if got != want || gotOK != wantOK {
				t.Fatalf("seed %d op %d: NextAt(%v) = %v,%v want %v,%v", seed, ops, ks, got, gotOK, want, wantOK)
			}
			if k.Len() != m.len() {
				t.Fatalf("seed %d op %d: Len = %d want %d", seed, ops, k.Len(), m.len())
			}
			ops++
		}
		act := func() {
			switch r := rng.Intn(10); {
			case r < 4 && m.len() < maxLive:
				post()
			case r < 6:
				hide()
			default:
				query()
			}
		}

		k.Observe(observerFunc(func(e *Event) {
			want := m.next()
			if want == nil || e.Seq() != want.seq {
				t.Fatalf("seed %d op %d: delivered seq %d (t=%v), model wants %+v", seed, ops, e.Seq(), e.At, want)
			}
			if !e.delivered || k.Now() != e.At {
				t.Fatalf("seed %d: observer ran before the clock/flag update", seed)
			}
			want.delivered = true
			ops++
		}))
		for kind := 0; kind < kinds-1; kind++ {
			k.Handle(Kind(kind), func(e *Event) error {
				for n := rng.Intn(3); n > 0; n-- {
					act()
				}
				if stopAfter--; stopAfter == 0 {
					k.Stop()
				}
				return nil
			})
		}

		for ops < minOps {
			for n := 1 + rng.Intn(20); n > 0; n-- {
				act()
			}
			stopAfter = 1 + rng.Intn(30) // Stop mid-queue, then resume on the next round
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			query()
		}
		stopAfter = -1
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if k.Len() != 0 || m.len() != 0 {
			t.Fatalf("seed %d: drained kernel has Len %d, model %d", seed, k.Len(), m.len())
		}
	}
}
