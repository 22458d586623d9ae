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

var updateSuiteGolden = flag.Bool("update-suite", false, "rewrite testdata/suite.golden from the current sequential run")

// memoisedLogs returns every review log memoised so far.
func memoisedLogs() map[gen.MovieConfig][]records.Record {
	out := map[gen.MovieConfig][]records.Record{}
	movieFixtures.Range(func(k, _ any) bool {
		out[k.(gen.MovieConfig)] = movieRecords(k.(gen.MovieConfig))
		return true
	})
	return out
}

// TestSuiteGoldenAndParallel pins the whole suite's rendered output
// (sequential run vs. the golden file) and verifies the parallel runner is
// byte-identical to it — the kernel-based engine is job-isolated, so
// concurrency must not change a single byte. Sections share memoised,
// aliased review logs, so it also checks that no section wrote to one:
// after the sequential run each still equals a fresh generation, and
// after the 4-worker run too (strings are immutable, so comparing records
// compares everything a section could have changed).
func TestSuiteGoldenAndParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("suite is seconds-long; skipped in -short")
	}
	var seq bytes.Buffer
	if _, err := RunSuiteBench(&seq, 1); err != nil {
		t.Fatal(err)
	}
	out := seq.String()
	for _, want := range []string{"Figure 1", "Figure 2", "Table I", "Figure 5", "Figure 6",
		"Figure 7", "Figure 8", "Table II", "Figure 9", "Figure 10", "Ablation"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite output missing %q", want)
		}
	}

	golden := filepath.Join("testdata", "suite.golden")
	if *updateSuiteGolden {
		if err := os.WriteFile(golden, seq.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), want) {
		t.Errorf("sequential suite output deviates from %s (run with -update-suite to rebless); got %d bytes, want %d",
			golden, seq.Len(), len(want))
	}

	fresh := map[gen.MovieConfig][]records.Record{}
	for cfg, recs := range memoisedLogs() {
		fresh[cfg] = gen.Movies(cfg)
		if !slices.Equal(recs, fresh[cfg]) {
			t.Errorf("memoised %+v was modified by the sequential suite", cfg)
		}
	}
	if len(fresh) < 6 {
		t.Errorf("suite memoised %d review logs, want its six configurations", len(fresh))
	}

	var par bytes.Buffer
	rep, err := RunSuiteBench(&par, 4)
	if err != nil {
		t.Fatal(err)
	}
	for cfg, recs := range memoisedLogs() {
		if !slices.Equal(recs, fresh[cfg]) {
			t.Errorf("memoised %+v was modified (or first generated) under the 4-worker suite", cfg)
		}
	}
	if !bytes.Equal(par.Bytes(), seq.Bytes()) {
		t.Errorf("parallel suite output differs from sequential (%d vs %d bytes)", par.Len(), seq.Len())
	}
	if rep == nil || rep.Workers != 4 || len(rep.Sections) != len(suiteSections()) {
		t.Fatalf("bench report incomplete: %+v", rep)
	}
	haveMakespans := false
	for _, s := range rep.Sections {
		if s.Name == "" {
			t.Error("bench section with empty name")
		}
		if len(s.SimMakespans) > 0 {
			haveMakespans = true
		}
	}
	if !haveMakespans {
		t.Error("no section reported simulated makespans")
	}
	for _, g := range failedGates(rep, suiteGates) {
		t.Errorf("suite gate does not hold: %v", g)
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

// movieRecords is reached from every suite worker at once: concurrent
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
			got[i] = movieRecords(cfg)
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
	if &movieRecords(other)[0] == &got[0][0] {
		t.Error("a different configuration returned the same log")
	}
}
