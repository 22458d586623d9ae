package experiments

import (
	"fmt"

	"datanet/internal/apps"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
)

// Aggregation quantifies the paper's future-work extension: using
// ElasticMap's distribution knowledge to place reduce tasks where the map
// output already sits, minimizing the shuffled volume ("for applications
// with aggregation requirements … ElasticMap can also be used to minimize
// the data transferred", §IV-B). It compares round-robin vs output-aware
// reducer placement for several reducer counts under the locality
// baseline, where the map output is concentrated on a few nodes — exactly
// the situation in which knowing the distribution lets the placement keep
// the biggest shares off the network. (Under DataNet's balanced scheduling
// every node holds a similar share and placement hardly matters — itself
// a finding.) <reducers>/saving is the shuffled-bytes reduction of
// output-aware placement at that reducer count.
func Aggregation(env *Env, reducerCounts []int) (*Report, error) {
	if len(reducerCounts) == 0 {
		reducerCounts = []int{2, 4, 8}
	}
	r := newReport()
	t := metrics.NewTable("Extension — aggregation-aware reducer placement (paper future work)",
		"reducers", "placement", "shuffled", "max shuffle", "job time")
	for _, rc := range reducerCounts {
		var shuffled [2]int64
		for i, placement := range []string{"round-robin", "output-aware"} {
			cfg := env.job(apps.WordCount{}, locality)
			cfg.Reducers, cfg.OutputAwareReducers = rc, placement == "output-aware"
			run, err := mapreduce.Run(cfg)
			if err != nil {
				return nil, err
			}
			maxShuffle := 0.0
			for _, d := range run.ShuffleDurations {
				maxShuffle = max(maxShuffle, d)
			}
			t.Add(fmt.Sprint(rc), placement, metrics.Bytes(run.ShuffleBytes),
				metrics.Seconds(maxShuffle), metrics.Seconds(run.JobTime))
			r.Values[fmt.Sprintf("%d/%s", rc, placement)] = run.JobTime
			shuffled[i] = run.ShuffleBytes
		}
		saving := 0.0
		if shuffled[0] > 0 {
			saving = float64(shuffled[0]-shuffled[1]) / float64(shuffled[0])
		}
		r.Values[fmt.Sprintf("%d/saving", rc)] = saving
	}
	r.table(t)
	r.linef("  (placing reducers on the nodes already holding map output keeps that share off the network)")
	return r, nil
}

// Amortization answers "when does the one-time meta-data scan pay for
// itself?" — the paper's efficiency argument (§V-A.4: DataNet scans once;
// reactive schemes pay per job): the simulated cost of the construction
// scan against one Top-K job's analysis-time saving, and the break-even
// job count ⌈scan / saving⌉.
func Amortization(env *Env) (*Report, error) {
	c, err := env.compare(movieTopK())
	if err != nil {
		return nil, err
	}
	// The construction scan reads every block once; spread over the
	// cluster's data-local disks it costs ≈ totalBytes / (nodes·diskRate).
	blocks, err := env.FS.Blocks(env.File)
	if err != nil {
		return nil, err
	}
	var raw int64
	for _, b := range blocks {
		raw += b.Bytes
	}
	scan := float64(raw) / (float64(env.Topo.N()) * env.Topo.Node(0).DiskRate)
	saving := c.without.AnalysisTime - c.with.AnalysisTime
	breakEven := 0
	if saving > 0 {
		breakEven = int(scan/saving) + 1
	}

	r := newReport()
	r.linef("Extension — meta-data scan amortization (%s)", env.describe())
	r.linef("  one-time construction scan: %s (one pass over all blocks, data-local)", metrics.Seconds(scan))
	r.linef("  per-job saving (Top-K):     %s", metrics.Seconds(saving))
	r.linef("  break-even after %d job(s); every further sub-dataset analysis on the file rides the same meta-data", breakEven)
	r.Values["scan_seconds"] = scan
	r.Values["per_job_saving"] = saving
	r.Values["break_even_jobs"] = float64(breakEven)
	return r, nil
}
