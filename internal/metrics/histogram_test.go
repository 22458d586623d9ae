package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 ||
		h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram not all-zero: %+v", h.Summary())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{4, 1, 3, 2} { // out of order on purpose
		h.Observe(v)
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {1.0 / 3.0, 2}, {2.0 / 3.0, 3},
		{-1, 1}, {2, 4}, // clamped
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if h.Mean() != 2.5 || h.Sum() != 10 || h.Min() != 1 || h.Max() != 4 {
		t.Fatalf("stats: %+v", h.Summary())
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	h := NewHistogram()
	h.Observe(math.NaN())
	h.Observe(2)
	if h.Count() != 1 || h.Mean() != 2 {
		t.Fatalf("NaN not dropped: count=%d mean=%v", h.Count(), h.Mean())
	}
}

func TestHistogramMarshalJSONIsSummary(t *testing.T) {
	h := NewHistogram()
	h.Observe(1)
	h.Observe(3)
	blob, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var s HistogramSummary
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	if s.Count != 2 || s.Mean != 2 || s.P50 != 2 || s.Max != 3 {
		t.Fatalf("summary round-trip: %+v", s)
	}
}

func TestSnapshotTables(t *testing.T) {
	s := NewSnapshot()
	s.Inc("b-counter", 2)
	s.Inc("a-counter", 1)
	s.SetGauge("ratio", 0.5)
	s.Histogram("dur").Observe(1.5)
	tables := s.Tables("run")
	if len(tables) != 2 {
		t.Fatalf("%d tables, want 2", len(tables))
	}
	text := tables[0].String() + tables[1].String()
	for _, want := range []string{"a-counter", "b-counter", "ratio", "dur", "1.5"} {
		if !strings.Contains(text, want) {
			t.Fatalf("tables missing %q in:\n%s", want, text)
		}
	}
	// Sorted keys: a-counter before b-counter.
	if strings.Index(text, "a-counter") > strings.Index(text, "b-counter") {
		t.Fatal("counter keys not sorted")
	}
	// No histograms → single table.
	if got := len(NewSnapshot().Tables("x")); got != 1 {
		t.Fatalf("empty snapshot renders %d tables", got)
	}
}

func TestFaultCountersTable(t *testing.T) {
	a := FaultCounters{Runs: 2, NodeCrashes: 3, TasksRetried: 3, SpeculativeWins: 7, MetadataFallbacks: 1}
	text := a.Table("faults").String()
	for _, want := range []string{"runs observed", "node crashes", "3", "speculation wins", "7"} {
		if !strings.Contains(text, want) {
			t.Fatalf("table missing %q in:\n%s", want, text)
		}
	}
}
