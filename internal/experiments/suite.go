package experiments

import (
	"fmt"
	"io"
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
// may run concurrently.
type suiteSection struct {
	name   string
	shared bool
	run    func(env *Env) (fmt.Stringer, error)
}

// suiteSections is the full paper suite in output order.
func suiteSections() []suiteSection {
	return []suiteSection{
		// Figure 1 (its own 128-block env, as in the paper's intro example).
		{"fig1", false, func(*Env) (fmt.Stringer, error) {
			p := DefaultMovieParams()
			p.Blocks = 128
			r, err := Fig1(p)
			return r, err
		}},
		// Figure 2 (analytic).
		{"fig2", false, func(*Env) (fmt.Stringer, error) {
			return Fig2(stats.Gamma{}, 0, nil), nil
		}},
		{"table1", true, func(env *Env) (fmt.Stringer, error) {
			r, err := Table1(env)
			return r, err
		}},
		{"fig5", true, func(env *Env) (fmt.Stringer, error) {
			r, err := Fig5(env)
			return r, err
		}},
		{"fig6", true, func(env *Env) (fmt.Stringer, error) {
			r, err := Fig6(env)
			return r, err
		}},
		{"fig7", true, func(env *Env) (fmt.Stringer, error) {
			r, err := Fig7(env)
			return r, err
		}},
		{"fig8", false, func(*Env) (fmt.Stringer, error) {
			r, err := Fig8(EventParams{})
			return r, err
		}},
		{"table2", true, func(env *Env) (fmt.Stringer, error) {
			r, err := Table2(env, nil)
			return r, err
		}},
		{"fig9", true, func(env *Env) (fmt.Stringer, error) {
			r, err := Fig9(env, 50)
			return r, err
		}},
		{"fig10", true, func(env *Env) (fmt.Stringer, error) {
			r, err := Fig10(env, nil)
			return r, err
		}},
		{"migration", true, func(env *Env) (fmt.Stringer, error) {
			r, err := Migration(env)
			return r, err
		}},
		{"bucket-ablation", true, func(env *Env) (fmt.Stringer, error) {
			r, err := BucketAblation(env)
			return r, err
		}},
		{"scheduler-ablation", true, func(env *Env) (fmt.Stringer, error) {
			r, err := SchedulerAblation(env)
			return r, err
		}},
		// Extension experiments (beyond the paper's figures; DESIGN.md §5-6).
		{"theory", false, func(*Env) (fmt.Stringer, error) {
			r, err := Theory(stats.Gamma{}, 0, 0, 3)
			return r, err
		}},
		{"cluster-sweep", false, func(*Env) (fmt.Stringer, error) {
			r, err := ClusterSweep(nil, MovieParams{})
			return r, err
		}},
		{"heterogeneity", false, func(*Env) (fmt.Stringer, error) {
			r, err := Heterogeneity(MovieParams{})
			return r, err
		}},
		{"reactive", true, func(env *Env) (fmt.Stringer, error) {
			r, err := Reactive(env)
			return r, err
		}},
		{"io-saving", true, func(env *Env) (fmt.Stringer, error) {
			r, err := IOSaving(env, nil)
			return r, err
		}},
		{"selectivity", true, func(env *Env) (fmt.Stringer, error) {
			r, err := Selectivity(env, nil)
			return r, err
		}},
		{"weblog", false, func(*Env) (fmt.Stringer, error) {
			r, err := WebLog(WebLogParams{})
			return r, err
		}},
		{"placement", false, func(*Env) (fmt.Stringer, error) {
			r, err := Placement(MovieParams{})
			return r, err
		}},
		{"model-check", true, func(env *Env) (fmt.Stringer, error) {
			r, err := ModelCheck(env, nil)
			return r, err
		}},
		{"aggregation", true, func(env *Env) (fmt.Stringer, error) {
			r, err := Aggregation(env, nil)
			return r, err
		}},
		{"amortization", true, func(env *Env) (fmt.Stringer, error) {
			r, err := Amortization(env)
			return r, err
		}},
		{"block-size", false, func(*Env) (fmt.Stringer, error) {
			r, err := BlockSize(nil, MovieParams{})
			return r, err
		}},
		{"replication", false, func(*Env) (fmt.Stringer, error) {
			r, err := Replication(nil, MovieParams{})
			return r, err
		}},
		{"fault-tolerance", false, func(*Env) (fmt.Stringer, error) {
			r, err := FaultTolerance(MovieParams{})
			return r, err
		}},
		{"detector-latency", false, func(*Env) (fmt.Stringer, error) {
			r, err := DetectorSweep(MovieParams{})
			return r, err
		}},
		{"failover-sweep", false, func(*Env) (fmt.Stringer, error) {
			r, err := FailoverSweep()
			return r, err
		}},
		{"placement-sweep", false, func(*Env) (fmt.Stringer, error) {
			r, err := PlacementSweep(MovieParams{})
			return r, err
		}},
		{"straggler-sweep", false, func(*Env) (fmt.Stringer, error) {
			r, err := StragglerSweep(nil, MovieParams{})
			return r, err
		}},
		{"partition-sweep", false, func(*Env) (fmt.Stringer, error) {
			r, err := PartitionSweep(MovieParams{})
			return r, err
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
// the bytes the full suite prints for it. The shared movie environment is
// built only for the sections that consume it.
func RunSection(w io.Writer, name string) error {
	for _, s := range suiteSections() {
		if s.name != name {
			continue
		}
		var env *Env
		if s.shared {
			var err error
			if env, err = NewMovieEnv(DefaultMovieParams()); err != nil {
				return err
			}
		}
		out, err := s.run(env)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, out.String())
		return err
	}
	return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(SectionNames(), ", "))
}

// RunSuiteBench executes every paper experiment on up to workers
// goroutines, streams the rendered results to w in the fixed suite order
// and returns the per-section benchmark report (wall-clock seconds and,
// where a section exposes them, simulated makespans and counters). The
// kernel-based engine is job-isolated (each job runs on its own event
// queue and clock), so independent sections fan out freely; the sections
// sharing the movie environment run one at a time in their declared order,
// exactly as the paper derives them from the same runs. The bytes written
// to w are identical at any worker count.
func RunSuiteBench(w io.Writer, workers int) (*BenchReport, error) {
	start := time.Now()
	env, err := NewMovieEnv(DefaultMovieParams())
	if err != nil {
		return nil, err
	}
	rep, err := runSections(w, suiteSections(), env, workers)
	if err != nil {
		return rep, err
	}
	rep.WallSeconds = time.Since(start).Seconds()
	return rep, nil
}

// runSections is RunSuiteBench over a given section list and shared
// environment.
func runSections(w io.Writer, secs []suiteSection, env *Env, workers int) (*BenchReport, error) {
	if workers < 1 {
		workers = 1
	}

	// One worker takes every section in suite order, so output streams as
	// it runs. More workers take the independent sections in suite order,
	// and the first to find none left runs the shared chain by itself: the
	// chain is serial anyway, and started last it fills the slot beside the
	// last long independent sweep instead of delaying that sweep's start.
	// No worker ever waits for another section to finish.
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
		out  fmt.Stringer
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

	rep := &BenchReport{Workers: workers}
	for i, s := range secs {
		<-done[i]
		r := results[i]
		if r.err != nil {
			return rep, r.err
		}
		rep.Sections = append(rep.Sections, benchSection(s.name, r.wall, r.out))
		if _, err := fmt.Fprintln(w, r.out.String()); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
