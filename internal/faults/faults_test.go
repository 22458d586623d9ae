package faults

import (
	"errors"
	"math"
	"testing"

	"datanet/internal/cluster"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		ok   bool
	}{
		{"nil plan", nil, true},
		{"empty", &Plan{}, true},
		{"good crash", &Plan{Crashes: []Crash{{Node: 1, At: 3, RejoinAt: 9}}}, true},
		{"node out of range", &Plan{Crashes: []Crash{{Node: 8, At: 1}}}, false},
		{"negative node", &Plan{Crashes: []Crash{{Node: -1, At: 1}}}, false},
		{"negative time", &Plan{Crashes: []Crash{{Node: 0, At: -2}}}, false},
		{"good slowdown", &Plan{Slow: []Slowdown{{Node: 2, CPU: 0.5}}}, true},
		{"slowdown factor >1", &Plan{Slow: []Slowdown{{Node: 2, Disk: 1.5}}}, false},
		{"slowdown node out of range", &Plan{Slow: []Slowdown{{Node: 99}}}, false},
		{"slowdown factor 0 means unchanged", &Plan{Slow: []Slowdown{{Node: 2}}}, true},
		{"two slowdowns distinct nodes", &Plan{Slow: []Slowdown{
			{Node: 1, CPU: 0.5}, {Node: 2, Disk: 0.5}}}, true},
		{"duplicate slowdown node", &Plan{Slow: []Slowdown{
			{Node: 2, CPU: 0.5}, {Node: 2, CPU: 0.25}}}, false},
		{"duplicate slowdown node different resources", &Plan{Slow: []Slowdown{
			{Node: 3, CPU: 0.5}, {Node: 3, Net: 0.5}}}, false},
		{"read prob ok", &Plan{Read: ReadErrors{Prob: 0.2}}, true},
		{"read prob 1", &Plan{Read: ReadErrors{Prob: 1}}, false},
		{"read prob negative", &Plan{Read: ReadErrors{Prob: -0.1}}, false},
		{"sequential windows", &Plan{Crashes: []Crash{
			{Node: 1, At: 3, RejoinAt: 5}, {Node: 1, At: 7, RejoinAt: 9}}}, true},
		{"touching windows", &Plan{Crashes: []Crash{
			{Node: 1, At: 3, RejoinAt: 5}, {Node: 1, At: 5, RejoinAt: 9}}}, true},
		{"same node different instants two other nodes", &Plan{Crashes: []Crash{
			{Node: 0, At: 3}, {Node: 2, At: 3}}}, true},
		{"duplicate crash instant", &Plan{Crashes: []Crash{
			{Node: 1, At: 3, RejoinAt: 8}, {Node: 1, At: 3, RejoinAt: 8}}}, false},
		{"duplicate permanent crash", &Plan{Crashes: []Crash{
			{Node: 1, At: 3}, {Node: 1, At: 3}}}, false},
		{"overlapping windows", &Plan{Crashes: []Crash{
			{Node: 1, At: 3, RejoinAt: 8}, {Node: 1, At: 5, RejoinAt: 12}}}, false},
		{"crash after permanent crash", &Plan{Crashes: []Crash{
			{Node: 1, At: 3}, {Node: 1, At: 9, RejoinAt: 12}}}, false},
		{"crash inside earlier window listed out of order", &Plan{Crashes: []Crash{
			{Node: 1, At: 5, RejoinAt: 12}, {Node: 1, At: 3, RejoinAt: 6}}}, false},
	}
	for _, c := range cases {
		err := c.plan.Validate(4)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && !errors.Is(err, ErrBadPlan) {
			t.Errorf("%s: err = %v, want ErrBadPlan", c.name, err)
		}
	}
}

func TestInjectorDeadAtAndRejoin(t *testing.T) {
	in, err := NewInjector(&Plan{Crashes: []Crash{
		{Node: 1, At: 5, RejoinAt: 10},
		{Node: 2, At: 3}, // permanent
		{Node: 1, At: 20, RejoinAt: 25},
	}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		node int
		t    float64
		dead bool
	}{
		{1, 4, false}, {1, 5, true}, {1, 7, true}, {1, 10.5, false},
		{1, 21, true}, {1, 26, false},
		{2, 2, false}, {2, 3, true}, {2, 1e9, true},
		{0, 50, false},
	}
	for _, c := range checks {
		if got := in.DeadAt(cluster.NodeID(c.node), c.t); got != c.dead {
			t.Errorf("DeadAt(%d, %g) = %v, want %v", c.node, c.t, got, c.dead)
		}
	}
	if r, ok := in.RejoinAfter(1, 6); !ok || r != 10 {
		t.Errorf("RejoinAfter(1,6) = %g,%v want 10,true", r, ok)
	}
	if r, ok := in.RejoinAfter(1, 22); !ok || r != 25 {
		t.Errorf("RejoinAfter(1,22) = %g,%v want 25,true", r, ok)
	}
	if _, ok := in.RejoinAfter(2, 4); ok {
		t.Error("permanent crash must not rejoin")
	}
}

// A rejoin time that coincides with a later crash interval's start is
// skipped forward to the later interval's rejoin.
func TestInjectorRejoinInsideLaterCrash(t *testing.T) {
	in, err := NewInjector(&Plan{Crashes: []Crash{
		{Node: 0, At: 5, RejoinAt: 12},
		{Node: 0, At: 12, RejoinAt: 20},
	}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := in.RejoinAfter(0, 6); !ok || r != 20 {
		t.Errorf("RejoinAfter = %g,%v want 20,true", r, ok)
	}
}

func TestInjectorRates(t *testing.T) {
	in, err := NewInjector(&Plan{Slow: []Slowdown{{Node: 1, CPU: 0.5, Net: 0.25}}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.CPURate(1, 100); got != 50 {
		t.Errorf("CPURate = %g, want 50", got)
	}
	if got := in.NetRate(1, 100); got != 25 {
		t.Errorf("NetRate = %g, want 25", got)
	}
	// Zero factor means unchanged, and untouched nodes are unchanged.
	if got := in.DiskRate(1, 100); got != 100 {
		t.Errorf("DiskRate (unset factor) = %g, want 100", got)
	}
	if got := in.CPURate(0, 100); got != 100 {
		t.Errorf("CPURate (healthy node) = %g, want 100", got)
	}
}

func TestReadFailsDeterministicAndCalibrated(t *testing.T) {
	in, err := NewInjector(&Plan{Seed: 11, Read: ReadErrors{Prob: 0.3}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := NewInjector(&Plan{Seed: 11, Read: ReadErrors{Prob: 0.3}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	fails := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		a := in.ReadFails(i%97, i%7, i%4+1)
		b := in2.ReadFails(i%97, i%7, i%4+1)
		if a != b {
			t.Fatalf("ReadFails not deterministic at %d", i)
		}
		if a {
			fails++
		}
	}
	rate := float64(fails) / trials
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("empirical failure rate %.3f far from configured 0.3", rate)
	}
	// Different seeds produce different outcomes somewhere.
	other, _ := NewInjector(&Plan{Seed: 12, Read: ReadErrors{Prob: 0.3}}, 8)
	diff := false
	for i := 0; i < 100 && !diff; i++ {
		diff = in.ReadFails(i, 0, 1) != other.ReadFails(i, 0, 1)
	}
	if !diff {
		t.Error("seed does not influence read-error outcomes")
	}
}

func TestInertInjector(t *testing.T) {
	in, err := NewInjector(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if in.DeadAt(0, 100) || in.ReadFails(0, 0, 1) || len(in.Crashes()) != 0 {
		t.Error("nil-plan injector must be inert")
	}
	if got := in.CPURate(0, 42); got != 42 {
		t.Errorf("inert CPURate = %g, want 42", got)
	}
}

func TestRetryPolicy(t *testing.T) {
	r := RetryPolicy{}.WithDefaults()
	if r.MaxAttempts != DefaultMaxAttempts || r.Backoff != DefaultBackoff {
		t.Errorf("defaults not applied: %+v", r)
	}
	if d := r.Delay(1); d != DefaultBackoff {
		t.Errorf("Delay(1) = %g", d)
	}
	if d := r.Delay(3); d != DefaultBackoff*4 {
		t.Errorf("Delay(3) = %g, want %g", d, DefaultBackoff*4)
	}
	if d := r.Delay(0); d != DefaultBackoff {
		t.Errorf("Delay(0) = %g, want clamp to first retry", d)
	}
}

// Regression: Backoff × 2^(n−1) used to overflow to +Inf for adversarial
// attempt counts, parking the retry at simulated-time infinity.
func TestRetryDelayClamped(t *testing.T) {
	r := RetryPolicy{MaxAttempts: 1 << 30}.WithDefaults()
	if r.MaxDelay != DefaultMaxDelay {
		t.Fatalf("MaxDelay default not applied: %+v", r)
	}
	for _, n := range []int{8, 64, 1024, 1 << 20, 1 << 30} {
		d := r.Delay(n)
		if math.IsInf(d, 0) || math.IsNaN(d) {
			t.Fatalf("Delay(%d) = %v, overflowed", n, d)
		}
		if d > DefaultMaxDelay {
			t.Fatalf("Delay(%d) = %g exceeds cap %g", n, d, float64(DefaultMaxDelay))
		}
	}
	if d := r.Delay(1 << 20); d != DefaultMaxDelay {
		t.Fatalf("huge attempt should hit the cap exactly, got %g", d)
	}
	// The cap never lowers small delays.
	if d := r.Delay(2); d != DefaultBackoff*2 {
		t.Fatalf("Delay(2) = %g, want %g", d, DefaultBackoff*2)
	}
	// A custom cap is honored, and a zero-value policy (no WithDefaults)
	// still cannot overflow.
	c := RetryPolicy{Backoff: 1, MaxDelay: 4}
	if d := c.Delay(10); d != 4 {
		t.Fatalf("custom cap: Delay(10) = %g, want 4", d)
	}
	z := RetryPolicy{Backoff: 1}
	if d := z.Delay(1 << 25); d != DefaultMaxDelay {
		t.Fatalf("zero-value cap: Delay = %g, want %g", d, float64(DefaultMaxDelay))
	}
}
