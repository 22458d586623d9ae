package straggle

import (
	"math"
	"testing"

	"datanet/internal/stats"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{Mode: ModeOff},
		Config{Mode: ModeSpeculative}.WithDefaults(),
		Config{Mode: ModeSpeculative, Quantile: 0.75}.WithDefaults(),
		Config{Mode: ModeCoded}.WithDefaults(),
		Config{Mode: ModeCoded, Rate: 0.7}.WithDefaults(),
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good[%d]: %v", i, err)
		}
	}
	// NaN passes a `x <= 0 || x >= 1` range check; it must not pass this
	// one, defaults applied or not.
	bad := []Config{
		{Mode: "bogus"},
		{Mode: ModeSpeculative, Quantile: 1.5},
		{Mode: ModeSpeculative, Quantile: -0.5},
		{Mode: ModeSpeculative, Quantile: math.NaN()},
		{Mode: ModeCoded, Rate: 1.0},
		{Mode: ModeCoded, Rate: math.NaN()},
	}
	for i, c := range bad {
		if err := c.WithDefaults().Validate(); err == nil {
			t.Errorf("bad[%d] %+v: want error", i, c)
		}
	}
	if (&Config{Mode: ModeSpeculative}).Enabled() != true || (&Config{}).Enabled() || (*Config)(nil).Enabled() {
		t.Error("Enabled misreports")
	}
}

func TestLayoutShapes(t *testing.T) {
	l := NewLayout(10, 4, 0.85)
	// Groups: [0,4)+1 parity, [4,8)+1 parity, [8,10)+1 parity.
	if len(l.Groups) != 3 || l.Total() != 13 || l.ParityUnits() != 3 {
		t.Fatalf("layout = %+v (total %d)", l.Groups, l.Total())
	}
	for u := 0; u < 4; u++ {
		if l.GroupOf(u) != 0 || l.IsParity(u) {
			t.Fatalf("unit %d misplaced", u)
		}
	}
	if !l.IsParity(10) || l.GroupOf(10) != 0 || l.GroupOf(12) != 2 {
		t.Fatalf("parity units misplaced: %+v", l.group)
	}
	// Lower rate buys more parity.
	l2 := NewLayout(10, 4, 0.7)
	if l2.ParityUnits() <= l.ParityUnits() {
		t.Fatalf("rate 0.7 parity %d not > rate 0.85 parity %d", l2.ParityUnits(), l.ParityUnits())
	}
	// Every group keeps at least one parity unit at any rate < 1.
	l3 := NewLayout(3, 1, 0.99)
	for _, g := range l3.Groups {
		if g.Par < 1 {
			t.Fatalf("group without parity: %+v", g)
		}
	}
}

func TestSpecEngineDecide(t *testing.T) {
	e := NewSpecEngine(0.9, 8, 0)
	// Homogeneous projections: nothing exceeds the quantile strictly.
	var ps []Projection
	for i := 0; i < 4; i++ {
		ps = append(ps, Projection{Unit: i, Projected: 10})
	}
	if got := e.Decide(0, ps); len(got) != 0 {
		t.Fatalf("homogeneous: got %v", got)
	}
	// One straggler projecting far beyond its finished peers.
	for i := 0; i < 7; i++ {
		e.ObserveFinish(10)
	}
	lone := []Projection{{Unit: 7, Projected: 100}}
	got := e.Decide(20, lone)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("lone straggler: got %v", got)
	}
	// Budgets: per-task cap stops a relaunch.
	e.NoteLaunch(7)
	if got := e.Decide(20, lone); len(got) != 0 {
		t.Fatalf("per-task budget ignored: got %v", got)
	}
	if e.Allow(7) {
		t.Fatal("per-task budget exhausted but Allow true")
	}
	// Per-job budget: max(1, tasks/4) is one backup for four tasks.
	e2 := NewSpecEngine(0.5, 4, 0)
	for i := 0; i < 6; i++ {
		e2.ObserveFinish(1)
	}
	two := []Projection{{Unit: 0, Projected: 50}, {Unit: 1, Projected: 60}}
	if got := e2.Decide(2, two); len(got) != 1 {
		t.Fatalf("per-job budget: got %v", got)
	}
	e2.NoteLaunch(0)
	if e2.Allow(1) {
		t.Fatal("per-job budget exhausted but Allow true")
	}
	// The minimum gain (twice the task overhead) suppresses near-finished
	// stragglers; the scan runs at the same cadence.
	e3 := NewSpecEngine(0.5, 2, 2.5)
	if e3.Interval() != 5 {
		t.Fatalf("scan cadence %v, want twice the 2.5 s task overhead", e3.Interval())
	}
	e3.ObserveFinish(1)
	if got := e3.Decide(9, []Projection{{Unit: 0, Projected: 10}}); len(got) != 0 {
		t.Fatalf("minGain ignored: got %v", got)
	}
}

// The speculation scan's trigger threshold is the nearest-rank quantile of
// the leave-one-out projections (stats.NearestRank).
func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if v := stats.NearestRank(s, 0.9); v != 9 {
		t.Fatalf("q90 = %v", v)
	}
	if v := stats.NearestRank(s, 0.5); v != 5 {
		t.Fatalf("q50 = %v", v)
	}
	if v := stats.NearestRank(s[:1], 0.75); v != 1 {
		t.Fatalf("single = %v", v)
	}
	if v := stats.NearestRank(s, 0.999); !(math.Abs(v-10) < 1e-12) {
		t.Fatalf("q99.9 = %v", v)
	}
}
