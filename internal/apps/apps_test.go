package apps

import (
	"strconv"
	"strings"
	"testing"

	"datanet/internal/records"
)

func collect(app App, recs []records.Record) map[string][]string {
	groups := make(map[string][]string)
	for _, r := range recs {
		app.Map(r, func(k, v string) { groups[k] = append(groups[k], v) })
	}
	return groups
}

func TestAllReturnsFourApps(t *testing.T) {
	apps := All()
	if len(apps) != 4 {
		t.Fatalf("All() = %d apps", len(apps))
	}
	names := map[string]bool{}
	for _, a := range apps {
		names[a.Name()] = true
		if a.CostFactor() <= 0 || a.OutputRatio() <= 0 {
			t.Errorf("%s has non-positive cost profile", a.Name())
		}
	}
	for _, want := range []string{"MovingAverage", "TopKSearch", "WordCount", "WordHistogram"} {
		if !names[want] {
			t.Errorf("missing app %s", want)
		}
	}
}

func TestCostOrdering(t *testing.T) {
	// The paper's premise: TopK is the heaviest computation, MovingAverage
	// the lightest (Fig. 6 derives from exactly this ordering).
	ma := NewMovingAverage(60)
	tk := NewTopKSearch(5, "q")
	wc := WordCount{}
	wh := WordHistogram{}
	if !(ma.CostFactor() < wc.CostFactor() && wc.CostFactor() <= wh.CostFactor() && wh.CostFactor() < tk.CostFactor()) {
		t.Errorf("cost ordering violated: MA=%g WC=%g WH=%g TopK=%g",
			ma.CostFactor(), wc.CostFactor(), wh.CostFactor(), tk.CostFactor())
	}
}

func TestWordCount(t *testing.T) {
	recs := []records.Record{
		{Sub: "m", Payload: "the plot the plot the"},
		{Sub: "m", Payload: "plot"},
	}
	groups := collect(WordCount{}, recs)
	if got := (WordCount{}).Reduce("the", groups["the"]); got != "3" {
		t.Errorf("the = %s", got)
	}
	if got := (WordCount{}).Reduce("plot", groups["plot"]); got != "3" {
		t.Errorf("plot = %s", got)
	}
	// Malformed values are skipped, not fatal.
	if got := (WordCount{}).Reduce("x", []string{"1", "junk", "2"}); got != "3" {
		t.Errorf("reduce with junk = %s", got)
	}
}

func TestWordHistogram(t *testing.T) {
	recs := []records.Record{{Sub: "m", Payload: "ab abc ab"}}
	groups := collect(WordHistogram{}, recs)
	if got := (WordHistogram{}).Reduce("len02", groups["len02"]); got != "2" {
		t.Errorf("len02 = %s", got)
	}
	if got := (WordHistogram{}).Reduce("len03", groups["len03"]); got != "1" {
		t.Errorf("len03 = %s", got)
	}
	// Very long words clamp at 32.
	long := collect(WordHistogram{}, []records.Record{{Payload: strings.Repeat("z", 100)}})
	if _, ok := long["len32"]; !ok {
		t.Error("long word not clamped to len32")
	}
}

func TestMovingAverage(t *testing.T) {
	app := NewMovingAverage(100)
	recs := []records.Record{
		{Time: 10, Rating: 4},
		{Time: 90, Rating: 2},
		{Time: 150, Rating: 5},
	}
	groups := collect(app, recs)
	if len(groups) != 2 {
		t.Fatalf("windows = %d, want 2", len(groups))
	}
	got := app.Reduce("w00000000", groups["w00000000"])
	f, err := strconv.ParseFloat(got, 64)
	if err != nil || f != 3 {
		t.Errorf("window 0 average = %s, want 3", got)
	}
	if got := app.Reduce("w", nil); got != "0" {
		t.Errorf("empty reduce = %s", got)
	}
	if NewMovingAverage(0).WindowSeconds != 3600 {
		t.Error("zero window not defaulted")
	}
}

// TestMeanReduceCountsOnlyParsedValues: a malformed value leaves a
// window's average alone — it is skipped from the count as well as the
// sum — in MovingAverage and SubDatasetJoin alike.
func TestMeanReduceCountsOnlyParsedValues(t *testing.T) {
	ma := NewMovingAverage(100)
	join := NewSubDatasetJoin("b", 100, nil)
	for _, tc := range []struct {
		values   []string
		avg      string
		joinSide string
	}{
		{[]string{"4.000", "2.000"}, "3.0000", "n=2 avg=3.0000 b=-"},
		{[]string{"4.000", "junk", "2.000"}, "3.0000", "n=2 avg=3.0000 b=-"},
		{[]string{"", "5.000", "4.5.0"}, "5.0000", "n=1 avg=5.0000 b=-"},
		{[]string{"junk"}, "0", "n=0 avg=0 b=-"},
		{nil, "0", "n=0 avg=0 b=-"},
	} {
		if got := ma.Reduce("w00000000", tc.values); got != tc.avg {
			t.Errorf("MovingAverage.Reduce(%q) = %q, want %q", tc.values, got, tc.avg)
		}
		if got := join.Reduce("j0000000000", tc.values); got != tc.joinSide {
			t.Errorf("SubDatasetJoin.Reduce(%q) = %q, want %q", tc.values, got, tc.joinSide)
		}
	}
}

func TestTopKSearch(t *testing.T) {
	app := NewTopKSearch(2, "alpha beta gamma")
	recs := []records.Record{
		{Sub: "a", Time: 1, Payload: "alpha beta gamma extra"}, // score 3
		{Sub: "b", Time: 2, Payload: "alpha nothing"},          // score 1
		{Sub: "c", Time: 3, Payload: "alpha beta"},             // score 2
		{Sub: "d", Time: 4, Payload: "unrelated words"},        // score 0 → no emit
	}
	groups := collect(app, recs)
	vals := groups["topk"]
	if len(vals) != 3 {
		t.Fatalf("candidates = %d, want 3 (zero scores dropped)", len(vals))
	}
	out := app.Reduce("topk", vals)
	parts := strings.Split(out, ",")
	if len(parts) != 2 {
		t.Fatalf("top-2 = %v", parts)
	}
	if !strings.Contains(parts[0], "a@1") || !strings.Contains(parts[1], "c@3") {
		t.Errorf("ranking wrong: %v", parts)
	}
	if NewTopKSearch(0, "q").K != 10 {
		t.Error("zero K not defaulted")
	}
}

func TestTopKReduceFewerThanK(t *testing.T) {
	app := NewTopKSearch(10, "x")
	if got := app.Reduce("topk", []string{"000001|a@1"}); got != "000001|a@1" {
		t.Errorf("reduce = %s", got)
	}
}

func TestSessionize(t *testing.T) {
	app := NewSessionize(100)
	recs := []records.Record{
		{Time: 10}, {Time: 50}, {Time: 150}, {Time: 151},
	}
	groups := collect(app, recs)
	if len(groups) != 2 {
		t.Fatalf("session windows = %d, want 2", len(groups))
	}
	if got := app.Reduce("sess0000000000", groups["sess0000000000"]); got != "2" {
		t.Errorf("window 0 count = %s", got)
	}
	if got := app.Reduce("sess0000000001", groups["sess0000000001"]); got != "2" {
		t.Errorf("window 1 count = %s", got)
	}
	if NewSessionize(0).Gap != 1800 {
		t.Error("zero gap not defaulted")
	}
	if app.CostFactor() <= NewMovingAverage(60).CostFactor() {
		t.Error("sessionization should cost more than plain iteration")
	}
}
