package sim

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

const (
	kindA Kind = iota
	kindB
	kindC
)

func TestDeliveryOrderTotal(t *testing.T) {
	k := New(nil)
	var got []string
	rec := func(name string) Handler {
		return func(e *Event) error {
			got = append(got, fmt.Sprintf("%s@%g", name, e.At))
			return nil
		}
	}
	k.Handle(kindA, rec("a"))
	k.Handle(kindB, rec("b"))
	// Same instant: Prio first, then K1, K2, then insertion order.
	k.Post(Event{At: 2, Kind: kindA, K1: 5})
	k.Post(Event{At: 1, Kind: kindA, K1: 9})
	k.Post(Event{At: 2, Kind: kindB, Prio: -1})
	k.Post(Event{At: 2, Kind: kindA, K1: 5, K2: 1})
	k.Post(Event{At: 2, Kind: kindA, K1: 2})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@1", "b@2", "a@2", "a@2", "a@2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if k.Now() != 2 {
		t.Errorf("clock = %g, want 2", k.Now())
	}
}

func TestInsertionSeqBreaksExactTies(t *testing.T) {
	k := New(nil)
	var got []int
	k.Handle(kindA, func(e *Event) error {
		got = append(got, e.Payload.(int))
		return nil
	})
	for i := 0; i < 8; i++ {
		k.Post(Event{At: 3, Kind: kindA, Payload: i})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("exact ties must deliver in insertion order: %v", got)
		}
	}
}

// Two kernels fed the same Post sequence must produce identical delivery
// schedules — the determinism guarantee the golden tests build on. The
// posting pattern is a seeded LCG, including handler-driven reposting.
func TestDeterministicReplay(t *testing.T) {
	runOnce := func() []string {
		k := New(nil)
		var log []string
		state := uint64(12345)
		next := func() uint64 {
			state = state*6364136223846793005 + 1442695040888963407
			return state
		}
		k.Handle(kindA, func(e *Event) error {
			log = append(log, fmt.Sprintf("a %g %d", e.At, e.K1))
			if len(log) < 200 {
				r := next()
				k.Post(Event{
					At:   e.At + float64(r%7)*0.25, // ties are common
					Kind: Kind(r % 2),
					K1:   int64(r % 5),
				})
			}
			return nil
		})
		k.Handle(kindB, func(e *Event) error {
			log = append(log, fmt.Sprintf("b %g %d", e.At, e.K1))
			if len(log) < 200 {
				r := next()
				k.Post(Event{At: e.At + float64(r%3)*0.5, Kind: Kind(r % 2), K1: int64(r % 5)})
			}
			return nil
		})
		for i := 0; i < 10; i++ {
			k.Post(Event{At: float64(i % 3), Kind: kindA, K1: int64(i)})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := runOnce(), runOnce()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same Post sequence produced different schedules")
	}
	if len(a) < 200 {
		t.Fatalf("replay too short: %d", len(a))
	}
}

func TestNextAtHorizon(t *testing.T) {
	k := New(nil)
	e1 := k.Post(Event{At: 5, Kind: kindA})
	k.Post(Event{At: 7, Kind: kindA})
	k.Post(Event{At: 6, Kind: kindB})
	k.Post(Event{At: 9, Kind: kindC})

	if at, ok := k.NextAt(kindA); !ok || at != 5 {
		t.Fatalf("NextAt(A) = %g,%v want 5", at, ok)
	}
	if at, ok := k.NextAt(kindA, kindB, kindC); !ok || at != 5 {
		t.Fatalf("NextAt(all) = %g,%v want 5", at, ok)
	}
	// Hiding removes the instant from the horizon but not from delivery.
	e1.Hide()
	if at, ok := k.NextAt(kindA); !ok || at != 7 {
		t.Fatalf("NextAt(A) after hide = %g,%v want 7", at, ok)
	}
	if at, ok := k.NextAt(kindB); !ok || at != 6 {
		t.Fatalf("NextAt(B) = %g,%v want 6", at, ok)
	}
	if _, ok := k.NextAt(Kind(99)); ok {
		t.Fatal("NextAt of unposted kind should report none")
	}
	delivered := 0
	k.Handle(kindA, func(e *Event) error { delivered++; return nil })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("hidden events must still deliver: got %d of 2", delivered)
	}
	if _, ok := k.NextAt(kindA, kindB, kindC); ok {
		t.Fatal("drained kernel should have empty horizon")
	}
}

// A kind's horizon is built on its first NextAt: a kind first queried after
// its events were posted, some hidden and some delivered, must answer from
// what is still queued and unhidden, and must see events posted later.
func TestNextAtFirstQueryAfterDeliveries(t *testing.T) {
	k := New(nil)
	var evs []*Event
	for i := 1; i <= 6; i++ {
		evs = append(evs, k.Post(Event{At: float64(i), Kind: kindA}))
		k.Post(Event{At: float64(i) + 0.5, Kind: kindB})
	}
	evs[3].Hide() // At 4, still queued after the partial run
	evs[4].Hide() // At 5
	k.Handle(kindA, func(e *Event) error {
		if e.At == 2 {
			k.Stop()
		}
		return nil
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// A at 1 and 2 and B at 1.5 were delivered: 3 is the earliest live A,
	// 2.5 the earliest live B.
	if at, ok := k.NextAt(kindA); !ok || at != 3 {
		t.Fatalf("first NextAt(A) = %g,%v want 3", at, ok)
	}
	if at, ok := k.NextAt(kindB, kindA); !ok || at != 2.5 {
		t.Fatalf("first NextAt(B, A) = %g,%v want 2.5", at, ok)
	}
	evs[2].Hide()
	if at, ok := k.NextAt(kindA); !ok || at != 6 {
		t.Fatalf("NextAt(A) with 3, 4 and 5 hidden = %g,%v want 6", at, ok)
	}
	k.Post(Event{At: 5.5, Kind: kindA})
	if at, ok := k.NextAt(kindA); !ok || at != 5.5 {
		t.Fatalf("NextAt(A) after a later Post = %g,%v want 5.5", at, ok)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.NextAt(kindA, kindB, kindC); ok {
		t.Fatal("drained kernel should have empty horizon")
	}
}

func TestStopAndResume(t *testing.T) {
	k := New(nil)
	var got []float64
	stopped := false
	k.Handle(kindA, func(e *Event) error {
		got = append(got, e.At)
		if e.At >= 2 && !stopped {
			stopped = true
			k.Stop()
		}
		return nil
	})
	for i := 1; i <= 5; i++ {
		k.Post(Event{At: float64(i), Kind: kindA})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || k.Len() != 3 {
		t.Fatalf("stop: delivered %v, %d left", got, k.Len())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || k.Len() != 0 {
		t.Fatalf("resume: delivered %v, %d left", got, k.Len())
	}
}

func TestHandlerErrorAborts(t *testing.T) {
	k := New(nil)
	boom := errors.New("boom")
	var seen int
	k.Handle(kindA, func(e *Event) error {
		seen++
		if e.At == 2 {
			return boom
		}
		return nil
	})
	for i := 1; i <= 4; i++ {
		k.Post(Event{At: float64(i), Kind: kindA})
	}
	if err := k.Run(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if seen != 2 {
		t.Fatalf("aborted after %d deliveries, want 2", seen)
	}
	if k.Now() != 2 {
		t.Fatalf("clock stops at failing event: %g", k.Now())
	}
}

func TestUnhandledKindIsTimeMarker(t *testing.T) {
	k := New(nil)
	k.Post(Event{At: 4, Kind: kindC})
	var at float64
	k.Handle(kindA, func(e *Event) error { at = k.Now(); return nil })
	k.Post(Event{At: 9, Kind: kindA})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 9 || k.Now() != 9 {
		t.Fatal("marker kinds must deliver silently and advance the clock")
	}
}

func TestObserverSeesEveryDelivery(t *testing.T) {
	k := New(nil)
	var seen []Kind
	k.Observe(observerFunc(func(e *Event) { seen = append(seen, e.Kind) }))
	k.Handle(kindA, func(e *Event) error { return nil })
	k.Post(Event{At: 1, Kind: kindA})
	k.Post(Event{At: 2, Kind: kindB}) // no handler — observer still sees it
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != kindA || seen[1] != kindB {
		t.Fatalf("observer saw %v", seen)
	}
}

type observerFunc func(*Event)

func (f observerFunc) Deliver(e *Event) { f(e) }

func TestCausalityViolationPanics(t *testing.T) {
	k := New(nil)
	k.Handle(kindA, func(e *Event) error {
		defer func() {
			if recover() == nil {
				t.Error("posting into the past must panic")
			}
		}()
		k.Post(Event{At: e.At - 1, Kind: kindA})
		return nil
	})
	k.Post(Event{At: 5, Kind: kindA})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// A NaN instant compares false against everything, so it used to slip past
// the causality check and sit in the heap where no ordering could place it.
func TestPostAtNaNPanics(t *testing.T) {
	k := New(nil)
	k.Post(Event{At: 1, Kind: kindA})
	defer func() {
		if recover() == nil {
			t.Error("posting at NaN must panic")
		}
		if k.Len() != 1 {
			t.Errorf("a rejected Post must not be queued: Len = %d", k.Len())
		}
	}()
	k.Post(Event{At: math.NaN(), Kind: kindA})
}

func TestClockMonotonicity(t *testing.T) {
	c := NewClock()
	c.Advance(3)
	c.AdvanceTo(3) // equal is fine
	c.AdvanceTo(4.5)
	if c.Now() != 4.5 {
		t.Fatalf("now = %g", c.Now())
	}
	for _, fn := range []func(){
		func() { c.AdvanceTo(4.4) },
		func() { c.Advance(-1) },
		func() { c.Advance(math.Inf(-1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("moving time backwards must panic")
				}
			}()
			fn()
		}()
	}
}

func TestPostAtNowDeliversAfterCurrent(t *testing.T) {
	k := New(nil)
	var got []string
	k.Handle(kindA, func(e *Event) error {
		got = append(got, "first")
		k.Post(Event{At: e.At, Kind: kindB}) // zero-delay follow-up
		return nil
	})
	k.Handle(kindB, func(e *Event) error {
		got = append(got, "second")
		return nil
	})
	k.Post(Event{At: 1, Kind: kindA})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[first second]" {
		t.Fatalf("got %v", got)
	}
}

func BenchmarkKernelChurn(b *testing.B) {
	k := New(nil)
	k.Handle(kindA, func(e *Event) error {
		if k.Len() < 1024 {
			k.Post(Event{At: e.At + 1, Kind: kindA, K1: e.K1})
		}
		return nil
	})
	for i := 0; i < 1024; i++ {
		k.Post(Event{At: float64(i % 13), Kind: kindA, K1: int64(i)})
	}
	b.ResetTimer()
	delivered := 0
	k.Handle(kindA, func(e *Event) error {
		delivered++
		if delivered < b.N {
			k.Post(Event{At: e.At + 1, Kind: kindA, K1: e.K1})
		} else {
			k.Stop()
		}
		return nil
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
