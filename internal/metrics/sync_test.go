package metrics

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestSyncHistogramConcurrent(t *testing.T) {
	var h SyncHistogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base float64) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(base + float64(j))
			}
		}(float64(i))
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count() != 8*500 {
		t.Fatalf("Count = %d, want %d", snap.Count(), 8*500)
	}
	sum := snap.Summary()
	if sum.Min != 0 || sum.Max != 7+499 {
		t.Fatalf("Summary min/max = %g/%g, want 0/506", sum.Min, sum.Max)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramSummary
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != 8*500 {
		t.Fatalf("round-tripped count = %d", back.Count)
	}
}
