package experiments

import (
	"fmt"
	"strings"

	"datanet/internal/apps"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
	"datanet/internal/sched"
)

// AggregationResult quantifies the paper's future-work extension: using
// ElasticMap's distribution knowledge to place reduce tasks where the map
// output already sits, minimizing the shuffled volume ("for applications
// with aggregation requirements … ElasticMap can also be used to minimize
// the data transferred", §IV-B).
type AggregationResult struct {
	Env  *Env
	Rows []AggregationRow
}

// AggregationRow is one (reducer count, placement) outcome.
type AggregationRow struct {
	Reducers     int
	Placement    string
	ShuffleBytes int64
	ShuffleMax   float64
	JobTime      float64
}

// Aggregation compares round-robin vs output-aware reducer placement for
// several reducer counts. It runs under the locality baseline, where the
// map output is concentrated on a few nodes — exactly the situation in
// which knowing the distribution lets the placement keep the biggest
// shares off the network. (Under DataNet's balanced scheduling every node
// holds a similar share and placement hardly matters — itself a finding.)
func Aggregation(env *Env, reducerCounts []int) (*AggregationResult, error) {
	if len(reducerCounts) == 0 {
		reducerCounts = []int{2, 4, 8}
	}
	app := apps.WordCount{}
	res := &AggregationResult{Env: env}
	for _, rc := range reducerCounts {
		for _, aware := range []bool{false, true} {
			run, err := mapreduce.Run(mapreduce.Config{
				FS: env.FS, File: env.File, TargetSub: env.Target,
				App: app, Picker: sched.NewLocalityPicker,
				Reducers: rc, OutputAwareReducers: aware,
			})
			if err != nil {
				return nil, err
			}
			placement := "round-robin"
			if aware {
				placement = "output-aware"
			}
			maxShuffle := 0.0
			for _, d := range run.ShuffleDurations {
				if d > maxShuffle {
					maxShuffle = d
				}
			}
			res.Rows = append(res.Rows, AggregationRow{
				Reducers:     rc,
				Placement:    placement,
				ShuffleBytes: run.ShuffleBytes,
				ShuffleMax:   maxShuffle,
				JobTime:      run.JobTime,
			})
		}
	}
	return res, nil
}

// Saving returns the shuffled-bytes reduction of output-aware placement at
// the given reducer count.
func (r *AggregationResult) Saving(reducers int) float64 {
	var rr, oa int64 = -1, -1
	for _, row := range r.Rows {
		if row.Reducers != reducers {
			continue
		}
		if row.Placement == "round-robin" {
			rr = row.ShuffleBytes
		} else {
			oa = row.ShuffleBytes
		}
	}
	if rr <= 0 || oa < 0 {
		return 0
	}
	return float64(rr-oa) / float64(rr)
}

// String renders the comparison.
func (r *AggregationResult) String() string {
	t := metrics.NewTable("Extension — aggregation-aware reducer placement (paper future work)",
		"reducers", "placement", "shuffled", "max shuffle", "job time")
	for _, row := range r.Rows {
		t.Add(fmt.Sprint(row.Reducers), row.Placement, metrics.Bytes(row.ShuffleBytes),
			metrics.Seconds(row.ShuffleMax), metrics.Seconds(row.JobTime))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("  (placing reducers on the nodes already holding map output keeps that share off the network)\n")
	return sb.String()
}

// ---------------------------------------------------------------------------

// AmortizationResult answers "when does the one-time meta-data scan pay for
// itself?" — the paper's efficiency argument (§V-A.4: DataNet scans once;
// reactive schemes pay per job).
type AmortizationResult struct {
	Env *Env
	// ScanSeconds is the simulated cost of the meta-data construction scan
	// (one sequential pass over all blocks at disk rate, parallel over
	// nodes).
	ScanSeconds float64
	// PerJobSaving is the analysis-time saving of one Top-K job.
	PerJobSaving float64
	// BreakEvenJobs is ⌈scan / saving⌉.
	BreakEvenJobs int
}

// Amortization computes the break-even point.
func Amortization(env *Env) (*AmortizationResult, error) {
	app := apps.NewTopKSearch(10, "plot twist ending amazing director")
	base, err := env.RunBaseline(app)
	if err != nil {
		return nil, err
	}
	dn, err := env.RunDataNet(app)
	if err != nil {
		return nil, err
	}
	res := &AmortizationResult{Env: env}
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
	node := env.Topo.Node(0)
	res.ScanSeconds = float64(raw) / (float64(env.Topo.N()) * node.DiskRate)
	res.PerJobSaving = base.AnalysisTime - dn.AnalysisTime
	if res.PerJobSaving > 0 {
		res.BreakEvenJobs = int(res.ScanSeconds/res.PerJobSaving) + 1
	}
	return res, nil
}

// String renders the break-even analysis.
func (r *AmortizationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension — meta-data scan amortization (%s)\n", r.Env.describe())
	fmt.Fprintf(&sb, "  one-time construction scan: %s (one pass over all blocks, data-local)\n", metrics.Seconds(r.ScanSeconds))
	fmt.Fprintf(&sb, "  per-job saving (Top-K):     %s\n", metrics.Seconds(r.PerJobSaving))
	fmt.Fprintf(&sb, "  break-even after %d job(s); every further sub-dataset analysis on the file rides the same meta-data\n", r.BreakEvenJobs)
	return sb.String()
}
