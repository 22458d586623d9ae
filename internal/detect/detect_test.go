package detect

import (
	"errors"
	"math"
	"testing"

	"datanet/internal/cluster"
	"datanet/internal/sim"
)

const (
	kBeat sim.Kind = iota
	kTimeout
	kStop
)

// fakeTruth scripts one node's physical fate; all other nodes are healthy.
type fakeTruth struct {
	node     cluster.NodeID
	crashAt  float64
	rejoinAt float64 // <= crashAt means permanent; 0 with crashAt 0 means healthy
	cpu      map[cluster.NodeID]float64
	crashed  bool
}

func (f *fakeTruth) DeadAt(id cluster.NodeID, t float64) bool {
	if !f.crashed || id != f.node || t < f.crashAt {
		return false
	}
	return f.rejoinAt <= f.crashAt || t < f.rejoinAt
}

func (f *fakeTruth) RejoinAfter(id cluster.NodeID, t float64) (float64, bool) {
	if !f.crashed || id != f.node || f.rejoinAt <= f.crashAt {
		return 0, false
	}
	if f.rejoinAt > t {
		return f.rejoinAt, true
	}
	return 0, false
}

func (f *fakeTruth) CPURate(id cluster.NodeID, base float64) float64 {
	if s, ok := f.cpu[id]; ok {
		return base * s
	}
	return base
}

// harness runs a detector over n nodes until simulated time end.
type harness struct {
	det      *Detector
	kern     *sim.Kernel
	suspects []struct {
		id cluster.NodeID
		t  float64
	}
	clears []struct {
		id cluster.NodeID
		t  float64
	}
	beats int
}

func newHarness(t *testing.T, cfg Config, truth Truth, n int, end float64) *harness {
	t.Helper()
	det, err := New(cfg, truth, n)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := &harness{det: det, kern: sim.New(nil)}
	det.SetHooks(Hooks{
		Beat: func(id cluster.NodeID, at float64) error { h.beats++; return nil },
		Suspect: func(id cluster.NodeID, at float64) error {
			h.suspects = append(h.suspects, struct {
				id cluster.NodeID
				t  float64
			}{id, at})
			return nil
		},
		Clear: func(id cluster.NodeID, at float64) error {
			h.clears = append(h.clears, struct {
				id cluster.NodeID
				t  float64
			}{id, at})
			return nil
		},
	})
	det.Bind(h.kern, kBeat, kTimeout, 2)
	h.kern.Handle(kStop, func(*sim.Event) error { h.kern.Stop(); return nil })
	h.kern.Post(sim.Event{At: end, Kind: kStop, Prio: 100})
	if err := h.kern.Run(); err != nil {
		t.Fatalf("kernel run: %v", err)
	}
	return h
}

func TestHealthyClusterNeverSuspected(t *testing.T) {
	h := newHarness(t, Config{Mode: Heartbeat}, &fakeTruth{}, 4, 20)
	if len(h.suspects) != 0 {
		t.Fatalf("healthy cluster produced %d suspicions: %+v", len(h.suspects), h.suspects)
	}
	if h.beats == 0 {
		t.Fatal("no beats delivered")
	}
	for id := 0; id < 4; id++ {
		if h.det.Health().Suspected(cluster.NodeID(id)) {
			t.Fatalf("node %d suspected on a healthy cluster", id)
		}
	}
}

func TestCrashSuspectedAfterTimeout(t *testing.T) {
	// Interval 0.5, timeout 1.5. Crash at 1.3: last beat at 1.0, so the
	// suspicion matures at 2.5 — detection latency 1.2.
	truth := &fakeTruth{node: 1, crashAt: 1.3, crashed: true}
	h := newHarness(t, Config{Mode: Heartbeat}, truth, 3, 10)
	if len(h.suspects) != 1 {
		t.Fatalf("want exactly 1 suspicion, got %+v", h.suspects)
	}
	s := h.suspects[0]
	if s.id != 1 {
		t.Fatalf("suspected node %d, want 1", s.id)
	}
	if want := 2.5; math.Abs(s.t-want) > 1e-9 {
		t.Fatalf("suspicion at %v, want %v (last beat 1.0 + timeout 1.5)", s.t, want)
	}
	if s.t <= truth.crashAt {
		t.Fatalf("suspicion at %v not strictly after the crash at %v", s.t, truth.crashAt)
	}
	if !h.det.Health().Suspected(1) {
		t.Fatal("crashed node not suspected")
	}
	if h.det.Health().Suspected(0) || h.det.Health().Suspected(2) {
		t.Fatal("healthy nodes suspected")
	}
}

func TestRejoinClearsSuspicion(t *testing.T) {
	truth := &fakeTruth{node: 2, crashAt: 1.3, rejoinAt: 4.0, crashed: true}
	h := newHarness(t, Config{Mode: Heartbeat}, truth, 3, 10)
	if len(h.suspects) != 1 || h.suspects[0].id != 2 {
		t.Fatalf("suspicions: %+v", h.suspects)
	}
	if len(h.clears) != 1 || h.clears[0].id != 2 {
		t.Fatalf("clears: %+v", h.clears)
	}
	// The restarted node's first beat is at the rejoin instant.
	if want := 4.0; math.Abs(h.clears[0].t-want) > 1e-9 {
		t.Fatalf("cleared at %v, want %v", h.clears[0].t, want)
	}
	if h.det.Health().Suspected(2) {
		t.Fatal("rejoined node still suspected")
	}
}

// TestFixedTimeoutFlapsOnSlowNode pins the straggler/failure ambiguity: a
// node at 20% CPU beats every 2.5 s against a fixed 1.5 s timeout, so the
// detector condemns it again after every beat.
func TestFixedTimeoutFlapsOnSlowNode(t *testing.T) {
	fixed := newHarness(t, Config{Mode: Heartbeat}, &fakeTruth{cpu: map[cluster.NodeID]float64{1: 0.2}}, 3, 30)
	for _, s := range fixed.suspects {
		if s.id != 1 {
			t.Fatalf("fixed detector suspected healthy node %d", s.id)
		}
	}
	if len(fixed.suspects) < 3 {
		t.Fatalf("fixed detector should flap on the slow node, got %d suspicions", len(fixed.suspects))
	}
}

func TestResponseAtAnalytic(t *testing.T) {
	truth := &fakeTruth{}
	h := newHarness(t, Config{Mode: Heartbeat}, truth, 2, 10.25)
	// Last delivered beat ≤ 10.25 is at 10.0. A crash at 17.2 projects the
	// chain forward: last beat before the crash at 17.0, response 18.5.
	got := h.det.ResponseAt(0, 17.2)
	if want := 18.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("ResponseAt = %v, want %v", got, want)
	}
	// A beat exactly at the crash instant is never sent.
	got = h.det.ResponseAt(0, 17.0)
	if want := 18.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("ResponseAt at beat-coincident crash = %v, want %v", got, want)
	}
	// The nil detector is the oracle.
	var nilDet *Detector
	if got := nilDet.ResponseAt(0, 3.25); got != 3.25 {
		t.Fatalf("nil ResponseAt = %v, want crash instant", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Mode: Oracle}, &fakeTruth{}, 2); err == nil {
		t.Fatal("oracle mode must not build a detector")
	}
	if _, err := New(Config{Mode: Heartbeat, Interval: math.Inf(1)}, &fakeTruth{}, 2); err == nil {
		t.Fatal("infinite interval accepted")
	}
	for _, m := range []Mode{2, 7} {
		if _, err := New(Config{Mode: m}, &fakeTruth{}, 2); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("mode %d built without Set: %v, want ErrBadConfig", m, err)
		}
	}
	// Only an exact zero takes the default: a negative, NaN or infinite
	// duration fails Validate in either mode.
	if got := (Config{}).WithDefaults(); got.Interval != DefaultInterval || got.Timeout != DefaultMissed*DefaultInterval {
		t.Errorf("zero config defaults to %+v", got)
	}
	for _, m := range Modes {
		for _, c := range []Config{{Interval: -1}, {Timeout: -1}, {Interval: -5, Timeout: 1},
			{Interval: math.NaN()}, {Timeout: math.Inf(1)}, {Interval: math.Inf(-1)}} {
			c.Mode = m
			if err := c.WithDefaults().Validate(); !errors.Is(err, ErrBadConfig) {
				t.Errorf("%+v: Validate after WithDefaults = %v, want ErrBadConfig", c, err)
			}
		}
	}
}
