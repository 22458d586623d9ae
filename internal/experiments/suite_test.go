package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"datanet/internal/gen"
	"datanet/internal/records"
)

var updateSuiteGolden = flag.Bool("update-suite", false, "rewrite testdata/suite.golden from the current run")

// memoisedLogs returns every review log memoised so far.
func memoisedLogs() map[gen.MovieConfig][]records.Record {
	out := map[gen.MovieConfig][]records.Record{}
	movieFixtures.Range(func(k, _ any) bool {
		out[k.(gen.MovieConfig)] = movieData(k.(gen.MovieConfig)).recs
		return true
	})
	return out
}

// TestSuiteGoldenAndParallel pins the whole suite's rendered output: one
// 4-worker run against the golden file — the kernel-based engine is
// job-isolated, so concurrency must not change a single byte. (The
// 1-worker queue order is TestOneWorkerRunsSectionsInSuiteOrder's, and
// TestRunSectionPrintsTheSuitesBytes runs sections alone.) Sections share
// memoised, aliased review logs, so it also checks that no section wrote
// to one: after the run each still equals a fresh generation (strings are
// immutable, so comparing records compares everything a section could
// have changed).
func TestSuiteGoldenAndParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("suite is seconds-long; skipped in -short")
	}
	var got bytes.Buffer
	rep, err := RunSuiteBench(&got, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := got.String()
	for _, want := range []string{"Figure 1", "Figure 2", "Table I", "Figure 5", "Figure 6",
		"Figure 7", "Figure 8", "Table II", "Figure 9", "Figure 10", "Ablation"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite output missing %q", want)
		}
	}

	golden := filepath.Join("testdata", "suite.golden")
	if *updateSuiteGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("4-worker suite output deviates from %s (run with -update-suite to rebless); got %d bytes, want %d",
			golden, got.Len(), len(want))
	}

	logs := memoisedLogs()
	for cfg, recs := range logs {
		if !slices.Equal(recs, gen.Movies(cfg)) {
			t.Errorf("memoised %+v was modified by the suite", cfg)
		}
	}
	if len(logs) < 6 {
		t.Errorf("suite memoised %d review logs, want its six configurations", len(logs))
	}

	if rep == nil || len(rep.Sections) != len(suiteSections()) {
		t.Fatalf("bench report incomplete: %+v", rep)
	}
	for _, s := range rep.Sections {
		if s.Name == "" || s.Report == nil || len(s.Values) == 0 {
			t.Errorf("bench section %q reported no named outcomes", s.Name)
		}
	}
	for _, g := range failedGates(rep, suiteGates()) {
		t.Errorf("suite gate does not hold: %v", g)
	}
}

// One worker takes every section, shared or not, in suite order; more
// workers run the shared chain in its declared order beside the
// independent sections. Either way the output is in suite order.
func TestOneWorkerRunsSectionsInSuiteOrder(t *testing.T) {
	var mu sync.Mutex
	var started []string
	var secs []suiteSection
	for _, sec := range []suiteSection{{name: "a"}, {name: "b", shared: true}, {name: "c"}, {name: "d", shared: true}} {
		name := sec.name
		sec.run = func(*Env) (*Report, error) {
			mu.Lock()
			started = append(started, name)
			mu.Unlock()
			r := newReport()
			r.linef(name)
			return r, nil
		}
		secs = append(secs, sec)
	}
	for _, workers := range []int{1, 3} {
		started = nil
		var out bytes.Buffer
		rep, err := runSections(&out, secs, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != "a\n\nb\n\nc\n\nd\n\n" || len(rep.Sections) != len(secs) {
			t.Errorf("%d workers: output %q, %d report sections", workers, out.String(), len(rep.Sections))
		}
		order := strings.Join(started, "")
		if workers == 1 && order != "abcd" {
			t.Errorf("1 worker started sections in order %q, want suite order", order)
		}
		if strings.Index(order, "b") > strings.Index(order, "d") {
			t.Errorf("%d workers: shared chain ran out of order: %q", workers, order)
		}
	}
}

// RunSection is what `datanet-bench -only` prints: for an independent and
// for shared-environment sections (the chain's first and last) it must be
// that section's bytes of the full suite. cmd/datanet-bench tests the
// unknown-name error.
func TestRunSectionPrintsTheSuitesBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "suite.golden"))
	if err != nil {
		t.Fatal(err)
	}
	names := SectionNames()
	for _, name := range []string{"fig2", "table1", "amortization"} {
		if !slices.Contains(names, name) {
			t.Fatalf("SectionNames() lacks %q: %v", name, names)
		}
		var out bytes.Buffer
		if err := RunSection(&out, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Len() == 0 || !bytes.Contains(golden, out.Bytes()) {
			t.Errorf("RunSection(%q) printed %d bytes that are not a slice of suite.golden:\n%s", name, out.Len(), out.Bytes())
		}
	}
}

// movieData is reached from every suite worker at once: concurrent
// first uses of one configuration must all get the same single generation.
func TestMovieRecordsGeneratesOncePerConfig(t *testing.T) {
	cfg := gen.MovieConfig{Movies: 30, Reviews: 2000, SpanDays: 30, Seed: 1234}
	const callers = 8
	got := make([][]records.Record, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = movieData(cfg).recs
		}()
	}
	wg.Wait()
	for i := range got {
		if len(got[i]) != cfg.Reviews || &got[i][0] != &got[0][0] {
			t.Fatalf("caller %d got its own generation (%d records)", i, len(got[i]))
		}
	}
	if !slices.Equal(got[0], gen.Movies(cfg)) {
		t.Error("memoised log differs from gen.Movies")
	}
	other := cfg
	other.Seed++
	if &movieData(other).recs[0] == &got[0][0] {
		t.Error("a different configuration returned the same log")
	}
}
