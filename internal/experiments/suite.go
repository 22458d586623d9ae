package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datanet/internal/stats"
)

// suiteSection is one experiment of the paper suite. Sections marked
// shared consume the shared 256-block movie environment (Fig. 5–7, Tables
// I–II, Fig. 9–10, the migration analysis, …) and must run in their
// declared order, since the paper derives them from the same runs;
// independent sections build their own environments (or are analytic) and
// may run concurrently. gates are the claims about the section's outcomes
// that must keep holding: suite.golden pins the numbers themselves, these
// say which relations between them matter.
type suiteSection struct {
	name   string
	shared bool
	run    func(env *Env) (*Report, error)
	gates  []gate
}

// gate is one claim about a report's Values: lhs op factor × rhs. An empty
// rhs compares lhs with factor alone. A key the report lacks fails the gate.
type gate struct {
	lhs    string
	op     string // "<", "<=", ">", ">=" or "=="
	factor float64
	rhs    string
}

// suiteSections is the full paper suite in output order.
func suiteSections() []suiteSection {
	return []suiteSection{
		// Figure 1 (its own 128-block env, as in the paper's intro example):
		// the sub-dataset is content-clustered and locality scheduling
		// inherits the imbalance.
		{"fig1", false, func(*Env) (*Report, error) { return Fig1(MovieParams{}) }, []gate{
			{"top30_share", ">=", 0.5, ""},
			{"node_max_over_mean", ">=", 1.1, ""},
		}},
		// Figure 2 (analytic): the paper quotes E[#nodes > 2E] = 4.0 at m=128.
		{"fig2", false, func(*Env) (*Report, error) { return Fig2(stats.Gamma{}, 0, nil), nil }, []gate{
			{"at128/above_double", ">=", 3, ""},
			{"at128/above_double", "<=", 5, ""},
		}},
		{"table1", true, Table1, []gate{
			{"subs", ">", 8, ""},
		}},
		// Fig. 5(a)'s ordering: DataNet wins on the compute-heavy app, and by
		// more than on the light one; Fig. 5(c): it levels the workload.
		{"fig5", true, Fig5, []gate{
			{"TopKSearch/improvement", ">", 0, ""},
			{"TopKSearch/improvement", ">", 1, "MovingAverage/improvement"},
			{"workload/datanet_max_avg", "<", 1, "workload/baseline_max_avg"},
		}},
		// Fig. 6: the MovingAverage min–max gap is much smaller than
		// WordCount's (both without DataNet), and DataNet shrinks the TopK gap.
		{"fig6", true, Fig6, []gate{
			{"MovingAverage/without/gap", "<", 1, "WordCount/without/gap"},
			{"TopKSearch/with/gap", "<", 1, "TopKSearch/without/gap"},
		}},
		// Fig. 7: shuffle with DataNet is substantially faster.
		{"fig7", true, Fig7, []gate{
			{"TopKSearch/speedup", ">=", 1.2, ""},
			{"WordCount/speedup", ">=", 1.1, ""},
		}},
		// Fig. 8: the event data is not release-clustered, and DataNet still
		// shortens the longest map (paper: 125 s → 107 s).
		{"fig8", false, func(*Env) (*Report, error) { return Fig8(EventParams{}) }, []gate{
			{"block_cv", "<=", 1, ""},
			{"longest_map/datanet", "<=", 1.05, "longest_map/baseline"},
		}},
		// Table II: a smaller hash share lowers accuracy and raises the ratio.
		{"table2", true, func(env *Env) (*Report, error) { return Table2(env, nil) }, []gate{
			{"0.21/accuracy", "<", 1, "0.51/accuracy"},
			{"0.21/ratio", ">", 1, "0.51/ratio"},
		}},
		// Fig. 9: large sub-datasets are estimated accurately, small ones less so.
		{"fig9", true, func(env *Env) (*Report, error) { return Fig9(env, 50) }, []gate{
			{"large/rel_err", "<=", 0.1, ""},
			{"large/rel_err", "<=", 1, "small/rel_err"},
		}},
		// Fig. 10: raising α beyond ~15% barely changes the balance.
		{"fig10", true, func(env *Env) (*Report, error) { return Fig10(env, nil) }, []gate{
			{"1.00/max_over_avg", "<=", 1.2, "0.15/max_over_avg"},
			{"1.00/max_over_avg", ">=", 0.8, "0.15/max_over_avg"},
		}},
		// §V-A.4: the reactive approach must move a real fraction of the
		// data; DataNet leaves less residual imbalance.
		{"migration", true, Migration, []gate{
			{"baseline/fraction", ">", 0, ""},
			{"datanet/fraction", "<", 1, "baseline/fraction"},
			{"aggregation/total_bytes", ">", 0, ""},
		}},
		{"bucket-ablation", true, BucketAblation, nil},
		{"scheduler-ablation", true, SchedulerAblation, []gate{
			{"datanet", "<", 1, "hadoop-locality"},
			{"datanet/max_over_avg", "<", 1, "hadoop-locality/max_over_avg"},
		}},
		// Extension experiments (beyond the paper's figures; DESIGN.md §5-6).
		// The Gamma model fits its own generator.
		{"theory", false, func(*Env) (*Report, error) { return Theory(stats.Gamma{}, 0, 0, 3) }, []gate{
			{"fit/moments_k", ">=", 0.9, ""},
			{"fit/moments_k", "<=", 1.5, ""},
			{"fit/mle_k", ">", 0, ""},
			{"fit/mle_theta", ">", 0, ""},
			{"ks", "<=", 2, "ks_critical"},
		}},
		// §II-B: baseline imbalance grows with the cluster size, and DataNet
		// tracks closer to 1 at the largest.
		{"cluster-sweep", false, func(*Env) (*Report, error) { return ClusterSweep(nil, MovieParams{}) }, []gate{
			{"128/baseline_max_avg", ">", 1, "8/baseline_max_avg"},
			{"128/datanet_max_avg", "<", 1, "128/baseline_max_avg"},
		}},
		// Capacity-aware targets must not be slower, and relieve the
		// slow-node stall.
		{"heterogeneity", false, func(*Env) (*Report, error) { return Heterogeneity(MovieParams{}) }, []gate{
			{"slow_nodes", ">", 0, ""},
			{"capacity", "<=", 1.02, "uniform"},
			{"capacity/slowest_node", "<", 1, "uniform/slowest_node"},
		}},
		{"reactive", true, Reactive, []gate{
			{"baseline + migration (SkewTune-style)/migrated", ">", 0, ""},
			{"baseline + migration (SkewTune-style)/max_over_avg", "<=", 1.01, ""},
			{"DataNet (Algorithm 1)/migrated", "==", 0, ""},
			{"DataNet (Algorithm 1)", "<=", 1, "locality baseline"},
		}},
		// A tail movie leaves more blocks skippable than the blockbuster.
		{"io-saving", true, func(env *Env) (*Report, error) { return IOSaving(env, nil) }, []gate{
			{"500/skipped_blocks", ">", 1, "0/skipped_blocks"},
		}},
		{"selectivity", true, func(env *Env) (*Report, error) { return Selectivity(env, nil) }, []gate{
			{"0/improvement", ">", 0, ""},
		}},
		{"weblog", false, func(*Env) (*Report, error) { return WebLog(WebLogParams{}) }, []gate{
			{"block_cv", ">", 0, ""},
			{"datanet_max_avg", "<=", 1.1, "baseline_max_avg"},
		}},
		// DataNet must not be (meaningfully) worse than the baseline under any
		// placement, and round-robin spreads storage most evenly.
		{"placement", false, func(*Env) (*Report, error) { return Placement(MovieParams{}) }, []gate{
			{"random/datanet_max_avg", "<=", 1.1, "random/baseline_max_avg"},
			{"rack-aware/datanet_max_avg", "<=", 1.1, "rack-aware/baseline_max_avg"},
			{"round-robin/datanet_max_avg", "<=", 1.1, "round-robin/baseline_max_avg"},
			{"round-robin/storage_cv", "<", 1, "random/storage_cv"},
		}},
		// Eq. 5 at the realized α matches the accounting to within rounding,
		// and the paper-scale block reaches a Table-II-order ratio.
		{"model-check", true, func(env *Env) (*Report, error) { return ModelCheck(env, nil) }, []gate{
			{"1.00/rel_err", "<=", 0.05, ""},
			{"paper_scale/ratio", ">=", 500, ""},
			{"paper_scale/chi", ">=", 0.7, ""},
			{"paper_scale/chi", "<=", 1, ""},
		}},
		// With imbalanced output and few reducers the saving must be real.
		{"aggregation", true, func(env *Env) (*Report, error) { return Aggregation(env, nil) }, []gate{
			{"2/saving", ">", 0, ""},
			{"4/saving", ">=", 0, ""},
		}},
		{"amortization", true, Amortization, []gate{
			{"scan_seconds", ">", 0, ""},
			{"per_job_saving", ">", 0, ""},
			{"break_even_jobs", ">=", 1, ""},
			{"break_even_jobs", "<=", 1000, ""},
		}},
		// Finer blocks are more numerous and each holds a smaller share.
		{"block-size", false, func(*Env) (*Report, error) { return BlockSize(nil, MovieParams{}) }, []gate{
			{"64 KiB/blocks", ">", 1, "1 MiB/blocks"},
			{"64 KiB/max_block_share", "<", 1, "1 MiB/max_block_share"},
		}},
		// Replication 1 pins every block, so DataNet's balance there cannot
		// beat its 3-replica balance.
		{"replication", false, func(*Env) (*Report, error) { return Replication(nil, MovieParams{}) }, []gate{
			{"3/datanet_max_avg", "<=", 1.05, "1/datanet_max_avg"},
		}},
		// Crash recovery never changes the job's answer, and corrupt
		// metadata demotes exactly the one job that met it.
		{"fault-tolerance", false, func(*Env) (*Report, error) { return FaultTolerance(MovieParams{}) }, []gate{
			{"output_divergences", "==", 0, ""},
			{"node_crashes", ">", 0, ""},
			{"metadata_fallbacks", "==", 1, ""},
		}},
		{"detector-latency", false, func(*Env) (*Report, error) { return DetectorSweep(MovieParams{}) }, []gate{
			{"output_divergences", "==", 0, ""},
			{"detection_latencies", ">", 0, ""},
		}},
		// The aggressive heartbeat detects sooner than the lazy one, and under
		// either the leader moves on the tick detection closes (the caption's
		// claim).
		{"failover-sweep", false, func(*Env) (*Report, error) { return FailoverSweep() }, []gate{
			{"data_lost", "==", 0, ""},
			{"hb K=1/detect_ticks", "<", 1, "hb K=3/detect_ticks"},
			{"hb K=1/promote_ticks", "==", 1, "hb K=1/detect_ticks"},
			{"hb K=3/promote_ticks", "==", 1, "hb K=3/detect_ticks"},
		}},
		// Algorithm 1 loses to locality on the clustered workload, but by
		// no more than 5%.
		{"placement-sweep", false, func(*Env) (*Report, error) { return PlacementSweep(MovieParams{}) }, []gate{
			{"clustered/scheduler-only", "<=", 1.05, "clustered/baseline"},
		}},
		// Both mitigations beat the unmitigated run under heavy slowdowns
		// (coded execution after arXiv 1802.03049), each did real work, and no
		// arm changed the job's output.
		{"straggler-sweep", false, func(*Env) (*Report, error) { return StragglerSweep(nil, MovieParams{}) }, []gate{
			{"128/slow-heavy/oracle/spec-q0.90", "<", 1, "128/slow-heavy/oracle/none"},
			{"128/slow-heavy/oracle/coded-r0.70", "<", 1, "128/slow-heavy/oracle/none"},
			{"speculative_wins", ">", 0, ""},
			{"wasted_task_seconds", ">", 0, ""},
			{"coded_decode_count", ">", 0, ""},
			{"output_divergences", "==", 0, ""},
		}},
		// Skew-aware partitioning cuts the zipfian reduce makespan by at least
		// a tenth against hashing (after arXiv 1401.0355) by splitting keys,
		// with identical output.
		{"partition-sweep", false, func(*Env) (*Report, error) { return PartitionSweep(MovieParams{}) }, []gate{
			{"zipfian/skew", "<=", 0.9, "zipfian/hash"},
			{"zipfian/skew/split_keys", ">", 0, ""},
			{"output_divergences", "==", 0, ""},
		}},
	}
}

// SectionNames lists the suite's experiments in output order: the names
// RunSection accepts.
func SectionNames() []string {
	secs := suiteSections()
	names := make([]string, len(secs))
	for i, s := range secs {
		names[i] = s.name
	}
	return names
}

// RunSection runs one experiment by its suite name and writes to w exactly
// the bytes the full suite prints for it.
func RunSection(w io.Writer, name string) error {
	_, err := runNamed(w, name)
	return err
}

// runNamed runs the named sections in suite order on one worker, writing
// their text to w, and returns their records. The shared movie environment
// is built only when one of them consumes it.
func runNamed(w io.Writer, names ...string) ([]BenchSection, error) {
	for _, name := range names {
		if !slices.Contains(SectionNames(), name) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(SectionNames(), ", "))
		}
	}
	var secs []suiteSection
	var env *Env
	for _, s := range suiteSections() {
		if !slices.Contains(names, s.name) {
			continue
		}
		if s.shared && env == nil {
			var err error
			if env, err = NewMovieEnv(DefaultMovieParams()); err != nil {
				return nil, err
			}
		}
		secs = append(secs, s)
	}
	rep, err := runSections(w, secs, env, 1)
	return rep.Sections, err
}

// RunSuiteBench executes every paper experiment on up to workers
// goroutines, streams the rendered results to w in the fixed suite order
// and returns the per-section benchmark report (wall-clock seconds and
// each section's Report). The kernel-based engine is job-isolated (each job
// runs on its own event queue and clock), so independent sections fan out
// freely; the sections sharing the movie environment run one at a time in
// their declared order, exactly as the paper derives them from the same
// runs. The bytes written to w are identical at any worker count.
func RunSuiteBench(w io.Writer, workers int) (*BenchReport, error) {
	env, err := NewMovieEnv(DefaultMovieParams())
	if err != nil {
		return nil, err
	}
	return runSections(w, suiteSections(), env, workers)
}

// runSections is RunSuiteBench over a given section list and shared
// environment.
func runSections(w io.Writer, secs []suiteSection, env *Env, workers int) (*BenchReport, error) {
	if workers < 1 {
		workers = 1
	}

	// One worker takes every section in suite order, so output streams as
	// it runs. More workers take the independent sections in suite order,
	// and the first to find none left runs the shared chain by itself. The
	// chain is serial anyway; started last, it runs beside the straggler
	// sweep, the last long independent section (whose cells already run on
	// every core), instead of delaying that sweep's start. No worker ever
	// waits for another section to finish.
	queue := make(chan int, len(secs))
	var chain []int
	for i, s := range secs {
		if s.shared && workers > 1 {
			chain = append(chain, i)
		} else {
			queue <- i
		}
	}
	close(queue)

	type result struct {
		out  *Report
		err  error
		wall time.Duration
	}
	results := make([]result, len(secs))
	done := make([]chan struct{}, len(secs)) // done[i] is closed once results[i] is set
	for i := range done {
		done[i] = make(chan struct{})
	}
	var stop, chainTaken atomic.Bool
	run := func(i int) {
		if stop.Load() {
			return
		}
		t0 := time.Now()
		out, err := secs[i].run(env)
		results[i] = result{out, err, time.Since(t0)}
		close(done[i])
	}
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				run(i)
			}
			if chainTaken.CompareAndSwap(false, true) {
				for _, i := range chain {
					run(i)
				}
			}
		}()
	}
	// On a failure the sections already running finish and no other starts.
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	rep := &BenchReport{}
	for i, s := range secs {
		<-done[i]
		r := results[i]
		if r.err != nil {
			return rep, r.err
		}
		rep.Sections = append(rep.Sections, BenchSection{s.name, r.wall.Seconds(), r.out})
		if _, err := fmt.Fprintln(w, r.out.String()); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
