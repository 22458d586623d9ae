package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"datanet/internal/experiments"
)

// goldenPath is the suite output the repository's own tests pin; the
// benchmark holds the suite to the same bytes. The suite keeps the
// program's fixed seeds: -seed does not reach it.
const goldenPath = "internal/experiments/testdata/suite.golden"

// suiteSections are the sections reported by name: the ten with the largest
// share of the suite's wall time.
var suiteSections = []string{
	"cluster-sweep", "block-size", "straggler-sweep", "placement-sweep", "replication",
	"model-check", "placement", "fig10", "heterogeneity", "theory",
}

// suiteInst runs the full paper suite at a fixed worker count.
type suiteInst struct {
	workers int
	golden  []byte
	envS    float64 // seconds NewMovieEnv took during set-up
	report  *experiments.BenchReport
	wallS   float64
}

// setupSuite reads the golden output and builds the suite's shared movie
// environment once as a warm-up (the suite builds its own again): a pass is
// too long (~20 s) to spend one on warming up.
func setupSuite(_ int64, sz sizes) (instance, error) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading the suite golden (run from the repository root): %w", err)
	}
	start := time.Now()
	if _, err := experiments.NewMovieEnv(experiments.DefaultMovieParams()); err != nil {
		return nil, fmt.Errorf("building the movie environment: %w", err)
	}
	return &suiteInst{workers: sz.SuiteWorkers, golden: golden, envS: time.Since(start).Seconds()}, nil
}

func (s *suiteInst) prepare() error { return nil }
func (s *suiteInst) close()         {}

func (s *suiteInst) pass(tr *tracer) (*passResult, error) {
	p := &passResult{}
	var out bytes.Buffer
	start := time.Now()
	rep, err := experiments.RunSuiteBench(&out, s.workers)
	s.wallS = time.Since(start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("suite: %w", err)
	}
	s.report = rep
	// Sections run on the suite's own goroutines, so the benchmark sees
	// their durations only, through the report the timed run itself
	// returns; their spans are anchored at the start of the pass.
	for _, sec := range rep.Sections {
		p.opMs = append(p.opMs, sec.WallSeconds*1e3)
		p.attempted++
		tr.record("section:"+sec.Name, "experiments", int64(sec.WallSeconds*1e9))
	}
	p.attempted++
	if !bytes.Equal(out.Bytes(), s.golden) {
		p.fail("suite output (%d bytes) differs from %s (%d bytes)", out.Len(), goldenPath, len(s.golden))
	}
	return p, nil
}

func (s *suiteInst) layers(lc *layerCtx) error {
	lc.set("experiments.movie_env_s", s.envS)
	named := map[string]bool{}
	for _, n := range suiteSections {
		named[n] = true
	}
	var sum float64
	for _, sec := range s.report.Sections {
		sum += sec.WallSeconds
		if named[sec.Name] {
			lc.set("experiments.section_s."+strings.ReplaceAll(sec.Name, "-", "_"), sec.WallSeconds)
			delete(named, sec.Name)
		}
	}
	if len(named) > 0 {
		return fmt.Errorf("suite report lacks sections %v", named)
	}
	lc.set("experiments.sections_sum_s", sum)
	lc.set("experiments.parallel_efficiency", sum/(float64(s.workers)*s.wallS))
	return nil
}
