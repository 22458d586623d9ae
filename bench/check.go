package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"sort"
)

// defaultSeed is the seed the reference statistics were recorded at; 7 is
// the hold-out seed (see README.md).
const defaultSeed = 42

// referencePath holds, per workload, the simulated statistics of every job
// at the default seed and full sizes. A simulator speed-up must leave them
// identical.
const referencePath = "bench/testdata/reference.json"

// checkReference compares the run's simulated statistics with the recorded
// ones (or records them, with -bless). It applies at the default seed and
// full sizes only: another seed generates another dataset.
func checkReference(cfg runConfig, res *workloadResult) error {
	if len(res.Sim) == 0 || cfg.seed != defaultSeed || cfg.quick {
		return nil
	}
	ref := map[string][]simStat{}
	if err := readJSON(referencePath, &ref); err != nil && !(cfg.bless && errors.Is(err, fs.ErrNotExist)) {
		return fmt.Errorf("reading reference statistics: %w", err)
	}
	if cfg.bless {
		ref[cfg.workload] = res.Sim
		return writeJSON(referencePath, ref)
	}
	res.Attempted++
	if d := diffSim(ref[cfg.workload], res.Sim); d != "" {
		res.Failed++
		res.Failures = append(res.Failures, "differs from "+referencePath+" (-bless rewrites it): "+d)
	}
	return nil
}

// resultsFile is what -all writes and -check reads: the environment the
// numbers were taken in, then one record per workload and tier.
type resultsFile struct {
	GoVersion  string                     `json:"go_version"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Repeats    int                        `json:"repeats"`
	Sizes      sizes                      `json:"sizes"`
	EndToEnd   map[string]*workloadResult `json:"end_to_end"`
	PerLayer   map[string]*workloadResult `json:"per_layer"`
}

// relSpread is the run's min–max spread as a share of its median.
func relSpread(m measured) float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Max - m.Min) / math.Abs(m.Value)
}

// judge compares one metric of a fresh run with the base run. A median
// worse by more than the bound is a regression when it is resolved: both
// runs' min–max spreads are within the bound, or every fresh sample is worse
// than every base sample. A difference the spread drowns is reported as
// unresolved, never as unchanged, unless every fresh sample is better than
// every base sample.
func judge(spec metricSpec, base, fresh measured) (worse float64, status string) {
	sign := 1.0 // lower is better: growing is worsening
	allWorse, allBetter := fresh.Min > base.Max, fresh.Max < base.Min
	if spec.Better == higher {
		sign = -1
		allWorse, allBetter = allBetter, allWorse
	}
	if base.Value != 0 {
		worse = sign * (fresh.Value - base.Value) / math.Abs(base.Value)
	}
	resolved := relSpread(base) <= spec.Bound && relSpread(fresh) <= spec.Bound
	switch {
	case worse > spec.Bound && (resolved || allWorse):
		return worse, "REGRESSION"
	case worse > spec.Bound, !resolved && !allBetter:
		return worse, "unresolved"
	default:
		return worse, "ok"
	}
}

// compareResults judges every end-to-end metric of every workload, one row
// per pairing, and reports whether the fresh results pass: no resolved
// regression and no rise in the failed share.
func compareResults(base, fresh *resultsFile, w io.Writer) bool {
	pass := true
	names := make([]string, 0, len(fresh.EndToEnd))
	for name := range fresh.EndToEnd {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %8s  %s\n", "workload", "metric", "base", "fresh", "worse", "status")
	for _, name := range names {
		f, b := fresh.EndToEnd[name], base.EndToEnd[name]
		if b == nil {
			fmt.Fprintf(w, "%-15s not in base\n", name)
			continue
		}
		for _, spec := range endToEnd {
			worse, status := judge(spec, b.Metrics[spec.Name], f.Metrics[spec.Name])
			if status == "REGRESSION" {
				pass = false
			}
			fmt.Fprintf(w, "%-15s %-18s %14.4f %14.4f %+7.1f%%  %s\n", name, spec.Name,
				b.Metrics[spec.Name].Value, f.Metrics[spec.Name].Value, 100*worse, status)
		}
		bShare, fShare := float64(b.Failed)/float64(b.Attempted), float64(f.Failed)/float64(f.Attempted)
		status := "ok"
		if fShare > bShare {
			status, pass = "REGRESSION", false
		}
		fmt.Fprintf(w, "%-15s %-18s %14.6f %14.6f %8s  %s\n", name, "failed_share", bShare, fShare, "", status)
		if b.Digest != f.Digest && base.Seed == fresh.Seed {
			// Not a regression by itself, but never silent: some response
			// changed between the two commits.
			fmt.Fprintf(w, "%-15s %-18s %14.8s %14.8s %8s  %s\n", name, "response digest", b.Digest, f.Digest, "", "differs")
		}
	}
	return pass
}
