package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestMixIsPureAndMatchesShares(t *testing.T) {
	subs := []string{"movie-00000", "movie-00001", "movie-00002"}
	const n = 20000
	a := generateMix(rand.New(rand.NewSource(7)), "reviews", subs, n, 16)
	b := generateMix(rand.New(rand.NewSource(7)), "reviews", subs, n, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated two different mixes")
	}
	if c := generateMix(rand.New(rand.NewSource(8)), "reviews", subs, n, 16); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds generated the same mix")
	}
	got := map[string]int{}
	for _, r := range a {
		got[r.kind]++
	}
	want := map[string]float64{"estimate": 0.35, "distribution": 0.25, "top": 0.12, "info": 0.08,
		"plan": 0.10, "unknown": 0.06, "malformed": 0.04}
	for kind, share := range want {
		if s := float64(got[kind]) / n; math.Abs(s-share) > 0.01 {
			t.Errorf("%s: share %.3f, want %.2f ± 0.01", kind, s, share)
		}
	}
	if len(got) != len(want) {
		t.Errorf("mix has kinds %v, want exactly %d kinds", got, len(want))
	}
}

func TestPercentiles(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 50}, {20, 50}, {99, 50}, {100, 90}, {250, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200 … 1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {90, 180}, {99, 198}, {100, 200}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 9, 5}, 99); got != 9 {
		t.Errorf("p99 of three samples = %v, want the maximum", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "op-a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "op-b", Start: 30, End: 70}, // overlaps op-a: another goroutine
		{ID: 4, Parent: 2, Name: "call", Start: 15, End: 25},
		{ID: 5, Parent: 1, Name: "op-c", Start: 90, End: 120}, // runs past its parent: clipped
	}
	want := map[int]int64{
		1: 100 - (60 + 10), // children cover [10,70] and [90,100]
		2: 30 - 10,
		3: 40,
		4: 10,
		5: 30,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestForkJoinKeepsParents(t *testing.T) {
	tr := newTracer()
	pass := tr.begin("pass", "bench")
	a, b := tr.fork(), tr.fork()
	ra := a.begin("req", "server")
	a.end(ra, 1)
	rb := b.begin("req", "server")
	inner := b.begin("inner", "server")
	b.end(inner, 0)
	b.end(rb, 1)
	tr.join(a, b)
	tr.end(pass, 0)
	parents := map[string][]int{}
	for _, s := range tr.spans {
		parents[s.Name] = append(parents[s.Name], s.Parent)
	}
	if !reflect.DeepEqual(parents["req"], []int{pass, pass}) {
		t.Errorf("request spans hang under %v, want the pass %d", parents["req"], pass)
	}
	if got := parents["inner"]; len(got) != 1 || tr.spans[got[0]-1].Name != "req" {
		t.Errorf("inner span hangs under %v, want a request span", got)
	}
}

// tinySizes makes D1 about eight blocks long.
func tinySizes() sizes {
	sz := quickSizes
	sz.Reviews = 8 * int(sz.ABlock) / meanRecordBytes
	return sz
}

func TestBuildStageSpansSumToPass(t *testing.T) {
	inst, err := setupBuild(3, tinySizes())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	// A pause between two stages (GC, preemption) lands outside every stage
	// span; take the best of a few passes rather than fail on one pause.
	best := math.Inf(1)
	for try := 0; try < 5 && best > 0.01; try++ {
		tr := newTracer()
		if _, _, _, err := timedPass(inst, tr); err != nil {
			t.Fatal(err)
		}
		var pass, stages int64
		for _, s := range tr.spans {
			if s.Name == "pass" {
				pass = s.dur()
			} else if s.Parent == 1 {
				stages += s.dur()
			}
		}
		if n := len(tr.spans); n != 1+len(buildStages) {
			t.Fatalf("%d spans, want the pass and %d stages", n, len(buildStages))
		}
		best = math.Min(best, math.Abs(float64(pass-stages))/float64(pass))
	}
	if best > 0.01 {
		t.Errorf("stage spans differ from the pass by %.2f%%, want within 1%%", 100*best)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	m := buildManifest()
	want, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json is not what bounds.go generates; run `go run ./bench -manifest > BENCHMARK.json`")
	}
	var back manifest
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Error("BENCHMARK.json does not round-trip")
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract's name rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, contract allows 1 to 200", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		name(s.Name)
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("%s: unit %q breaks the contract's unit rule", s.Name, s.Unit)
		}
		if s.Better != lower && s.Better != higher {
			t.Errorf("%s: better is %q", s.Name, s.Better)
		}
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v, contract allows at most 0.25", s.Name, s.Bound)
		}
	}
	if s, ok := specOf("setup_s"); !ok || s.Unit != "s" || s.Better != lower {
		t.Error("the contract requires setup_s, in s, lower is better")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, contract allows 64 KiB", len(got))
	}
}

// TestQuickWorkloads runs every workload but suite (one pass is ~20 s at
// any size) at smoke-test sizes, untraced and traced, and checks that each
// run carries every declared metric with its unit, fails no op, and that
// its record survives a JSON round trip.
func TestQuickWorkloads(t *testing.T) {
	out := t.TempDir()
	for _, def := range workloadDefs {
		if def.name == "suite" {
			continue
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: def.name, seed: 7, repeats: 1, trace: traced, quick: true, outDir: out}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", def.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d ops failed: %v", def.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			tier := endToEnd
			if traced {
				tier = perLayer
			}
			if len(res.Metrics) != len(tier) {
				t.Errorf("%s (traced %v): %d metrics, want %d", def.name, traced, len(res.Metrics), len(tier))
			}
			for _, s := range tier {
				m, ok := res.Metrics[s.Name]
				home := !traced
				for _, h := range s.Home {
					home = home || h == def.name
				}
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s missing", def.name, traced, s.Name)
				case m.Unit != s.Unit:
					t.Errorf("%s: %s has unit %q, want %q", def.name, s.Name, m.Unit, s.Unit)
				case home && m.N == 0:
					t.Errorf("%s is the home of %s but did not measure it", def.name, s.Name)
				case !home && m.N != 0:
					t.Errorf("%s measured %s, which names other homes %v", def.name, s.Name, s.Home)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, s.Name, m.Value)
				}
			}
			path := resultPath(out, def.name, traced)
			if err := writeJSON(path, res); err != nil {
				t.Fatal(err)
			}
			var back workloadResult
			if err := readJSON(path, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&back, res) {
				t.Errorf("%s (traced %v): record does not round-trip through JSON", def.name, traced)
			}
		}
	}
}

func TestCheckFlagsResolvedRegressionsOnly(t *testing.T) {
	spec, _ := specOf("pass_s")
	tight := func(v float64) measured { return measured{Value: v, Min: v * 0.99, Max: v * 1.01, N: 5, Unit: "s"} }
	loose := func(v float64) measured { return measured{Value: v, Min: v * 0.8, Max: v * 1.2, N: 5, Unit: "s"} }
	for _, c := range []struct {
		name        string
		base, fresh measured
		want        string
	}{
		{"half the bound", tight(1), tight(1 + spec.Bound/2), "ok"},
		{"bound plus 5%", tight(1), tight(1 + spec.Bound + 0.05), "REGRESSION"},
		{"better", tight(1), tight(0.7), "ok"},
		{"worse but drowned in spread", loose(1), loose(1 + spec.Bound + 0.05), "unresolved"},
		{"unchanged but drowned in spread", loose(1), loose(1.01), "unresolved"},
		{"every fresh sample worse", loose(1), measured{Value: 2, Min: 1.5, Max: 2.5, N: 5}, "REGRESSION"},
		{"every fresh sample better", loose(1), measured{Value: 0.5, Min: 0.4, Max: 0.6, N: 5}, "ok"},
	} {
		if _, got := judge(spec, c.base, c.fresh); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	up, _ := specOf("req_per_s")
	if _, got := judge(up, tight(100), tight(100*(1-up.Bound-0.05))); got != "REGRESSION" {
		t.Errorf("a drop of a higher-is-better metric beyond its bound: %s, want REGRESSION", got)
	}

	result := func(pass float64, failed int) *resultsFile {
		r := &workloadResult{Workload: "build", Attempted: 100, Failed: failed, Metrics: map[string]measured{}}
		for _, s := range endToEnd {
			r.Metrics[s.Name] = tight(1)
		}
		r.Metrics["pass_s"] = tight(pass)
		return &resultsFile{EndToEnd: map[string]*workloadResult{"build": r}}
	}
	var sink bytes.Buffer
	if !compareResults(result(1, 0), result(1+spec.Bound/2, 0), &sink) {
		t.Error("a worsening of half the bound failed the check")
	}
	if compareResults(result(1, 0), result(1+spec.Bound+0.05, 0), &sink) {
		t.Error("a worsening beyond the bound passed the check")
	}
	if compareResults(result(1, 0), result(1, 1), &sink) {
		t.Error("a rise in the failed share passed the check")
	}
}
