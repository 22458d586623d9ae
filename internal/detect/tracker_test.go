package detect

import (
	"reflect"
	"testing"
)

func TestTrackerFixedTimeout(t *testing.T) {
	tr, err := NewTracker(Config{Mode: Heartbeat, Interval: 1, Timeout: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr.Watch(0, 0)
	tr.Watch(1, 0)
	// Node 0 beats on schedule; node 1 goes silent after t=1, so with a
	// 3-second timeout it must be suspected strictly after t=4.
	for _, now := range []float64{1, 2, 3, 4} {
		tr.Beat(0, now)
		if now <= 1 {
			tr.Beat(1, now)
		}
		if sus := tr.Sweep(now); len(sus) != 0 {
			t.Fatalf("suspected too early at t=%g: %v", now, sus)
		}
	}
	if sus := tr.Sweep(4.5); !reflect.DeepEqual(sus, []int{1}) {
		t.Fatalf("Sweep(4.5) = %v, want [1]", sus)
	}
	if h := tr.Health(); !h.Suspected(1) || h.Suspected(0) {
		t.Fatalf("suspected: n0=%v n1=%v", h.Suspected(0), h.Suspected(1))
	}
	// A later beat clears the suspicion — the rejoin / false-alarm path.
	if !tr.Beat(1, 6) {
		t.Fatal("Beat after suspicion did not report cleared")
	}
	if tr.Health().Suspected(1) {
		t.Fatal("node 1 still suspected after clearing beat")
	}
	if tr.Suspicions != 1 {
		t.Fatalf("Suspicions = %d, want 1", tr.Suspicions)
	}
}

func TestTrackerMembership(t *testing.T) {
	tr, err := NewTracker(Config{Mode: Heartbeat, Interval: 1, Timeout: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Health().Suspected(3) {
		t.Fatal("unwatched node should be suspected")
	}
	tr.Watch(3, 10)
	if tr.Health().Suspected(3) {
		t.Fatal("watched node should start live")
	}
	tr.Watch(3, 99) // duplicate Watch must not reset anything observable
	tr.Forget(3)
	if !tr.Health().Suspected(3) {
		t.Fatal("forgotten node should be suspected")
	}
	if sus := tr.Sweep(100); len(sus) != 0 {
		t.Fatalf("forgotten node surfaced in sweep: %v", sus)
	}
	if _, err := NewTracker(Config{Mode: Oracle}); err == nil {
		t.Fatal("NewTracker accepted oracle mode")
	}
}

func TestTrackerSweepDeterministicOrder(t *testing.T) {
	tr, err := NewTracker(Config{Mode: Heartbeat, Interval: 1, Timeout: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id := 9; id >= 0; id-- {
		tr.Watch(id, 0)
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if sus := tr.Sweep(5); !reflect.DeepEqual(sus, want) {
		t.Fatalf("Sweep order not ascending: %v", sus)
	}
}
