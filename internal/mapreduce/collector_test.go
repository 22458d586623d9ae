package mapreduce

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/faults"
	"datanet/internal/hdfs"
	"datanet/internal/partition"
	"datanet/internal/records"
	"datanet/internal/sched"
	"datanet/internal/straggle"
)

// foldEnv builds a fixture whose target sub-dataset gives every counting
// application keys of a few, of 64 and of several hundred values:
// 5×64+7 records saying "hot" in session window 0, 64 saying "exact" in
// window 1 and 3 saying "rare" in window 2.
// A few "hot" records also say "plot", so TopKSearch has candidates, and
// another sub-dataset's records are interleaved so the filter predicate
// matters.
func foldEnv(t *testing.T) *hdfs.FileSystem {
	t.Helper()
	fs, err := hdfs.NewFileSystem(cluster.MustHomogeneous(8, 2), hdfs.Config{BlockSize: 2048, Replication: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var recs []records.Record
	add := func(n int, window int64, payload string) {
		for i := 0; i < n; i++ {
			p := payload
			if i%50 == 7 {
				p += " plot"
			}
			recs = append(recs,
				records.Record{Sub: "movie-A", Time: window*1800 + int64(i), Rating: 1 + float64(i%9)/2, Payload: p},
				records.Record{Sub: "movie-B", Time: int64(i), Rating: 2, Payload: "hot exact rare noise"})
		}
	}
	add(5*64+7, 0, "hot")
	add(64, 1, "exact")
	add(3, 2, "rare")
	if _, err := fs.Write("log", recs); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestExecutedOutputMatchesNaivePath: for every registered application an
// executed job's Output is what the naive data path computes — every
// emitted value of a key held in a map[string][]string, then one Reduce —
// and each key's group holds the naive path's pair count and
// len(k)+len(v) bytes; whether the collector's values reach Reduce
// directly, dealt across a split heavy key's shards (or counted, for an
// apps.Counter app),
// partly through a decoded coded fragment, after a mid-filter crash
// destroyed committed outputs, or after a post-barrier crash had the
// analysis recovery commit a node's fragments again — and whether the job
// mapped the records itself or folded a MapOutput handed in, which must
// also leave the partition plan untouched.
func TestExecutedOutputMatchesNaivePath(t *testing.T) {
	fs := foldEnv(t)
	for _, app := range apps.Extended() {
		t.Run(app.Name(), func(t *testing.T) { executedModes(t, fs, app) })
	}
}

// TestLedgerFoldIndependentOfWorkers: the ledger fold cuts the units into
// GOMAXPROCS runs, so every Result TestExecutedOutputMatchesNaivePath
// checks is run at 1, 2, 3 and 8 and must be the same at each — deeply
// equal, and equal to the naive path. It sets GOMAXPROCS itself, so the
// runs fold concurrently (and -race sees them) on a one-core machine too.
func TestLedgerFoldIndependentOfWorkers(t *testing.T) {
	fs := foldEnv(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, app := range apps.Extended() {
		t.Run(app.Name(), func(t *testing.T) {
			var ref []*Result
			for _, procs := range []int{1, 2, 3, 8} {
				runtime.GOMAXPROCS(procs)
				got := executedModes(t, fs, app)
				if ref == nil {
					ref = got
					continue
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], ref[i]) {
						t.Errorf("GOMAXPROCS %d: Result %d differs from the one-worker fold", procs, i)
					}
				}
			}
		})
	}
}

// executedModes runs app in every mode TestExecutedOutputMatchesNaivePath
// covers, once mapping the records and once folding a MapOutput, checks
// each Result against the naive path, and returns them in mode order.
func executedModes(t *testing.T, fs *hdfs.FileSystem, app apps.App) []*Result {
	t.Helper()
	target, err := FilteredRecords(fs, "log", "movie-A")
	if err != nil {
		t.Fatal(err)
	}
	slow := &faults.Plan{Slow: []faults.Slowdown{{Node: 3, CPU: 0.05, Disk: 0.05}, {Node: 6, CPU: 0.15, Disk: 0.15}}}
	type mode struct {
		name string
		cfg  Config
		// ran reports whether the run exercised the path the mode is for;
		// only a counting app must have a split key (DistributedSort's
		// keys are all distinct, so none of them is heavy).
		ran func(res *Result, counts bool) bool
	}
	modes := []mode{
		{"plain", Config{}, func(*Result, bool) bool { return true }},
		{"skew-split", Config{Reducers: 5, Partition: &partition.Config{Mode: partition.ModeSkew}},
			func(res *Result, counts bool) bool { return !counts || res.PartitionSplitKeys > 0 }},
		{"coded-decoded", Config{Mitigate: &straggle.Config{Mode: straggle.ModeCoded, Rate: 0.7}, Faults: slow, TaskOverhead: 0.001},
			func(res *Result, _ bool) bool { return res.CodedDecodes > 0 }},
	}
	var results []*Result
	groups := make(map[string][]string)
	bytes := make(map[string]int64)
	for _, r := range target {
		app.Map(r, func(k, v string) {
			groups[k] = append(groups[k], v)
			bytes[k] += int64(len(k) + len(v))
		})
	}
	want := make(map[string]string, len(groups))
	for k, vs := range groups {
		want[k] = app.Reduce(k, vs)
	}
	_, counts := app.(apps.Counter)
	mo, err := MapFile(fs, "log", app, "movie-A")
	if err != nil {
		t.Fatal(err)
	}
	// The groups a job folds, from its records or from the MapOutput, hold
	// the naive path's count and bytes per key.
	blocks, err := fs.Blocks("log")
	if err != nil {
		t.Fatal(err)
	}
	once := make([]int, len(blocks))
	for i := range once {
		once[i] = 1
	}
	fromRecords := func(u int, c *collector) { c.mapRecords(blocks[u].Records, app, "movie-A") }
	for _, src := range []func(int, *collector){fromRecords, mo.source} {
		c := newCollector(app, true)
		foldLedger(once, func(int) int64 { return 1 }, src, c)
		if len(c.groups) != len(groups) {
			t.Errorf("the fold holds %d keys, the naive path %d", len(c.groups), len(groups))
		}
		for k, vs := range groups {
			if g := c.groups[k]; g == nil {
				t.Errorf("key %q: no group", k)
			} else if g.n != int64(len(vs)) || g.bytes != bytes[k] {
				t.Errorf("key %q: %d pairs of %d bytes, want %d of %d", k, g.n, g.bytes, len(vs), bytes[k])
			}
		}
	}
	run := func(m mode, mo *MapOutput) *Result {
		cfg := m.cfg
		cfg.FS, cfg.File, cfg.TargetSub = fs.Clone(), "log", "movie-A" // crashes mutate the replica map
		cfg.App, cfg.Picker, cfg.ExecuteApp, cfg.MapOutput = app, sched.NewLocalityPicker, true, mo
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		return res
	}
	// The crash modes are timed off this app's own runs. Mid-filter: the
	// slowed nodes stretch the phase, so late in it a healthy node holds
	// committed outputs for its crash to destroy.
	// Post-barrier: half-way through the analysis of the node that
	// computes longest, so only recoverAnalysis can commit again what
	// the crash destroys.
	slowed := run(mode{cfg: Config{Faults: slow, TaskOverhead: 0.001}}, nil)
	midFilter := &faults.Plan{Slow: slow.Slow, Crashes: []faults.Crash{{Node: 2, At: 0.8 * slowed.FilterEnd}}}
	healthy := run(modes[0], nil)
	busiest := cluster.NodeID(0)
	for id, d := range healthy.NodeCompute {
		if d > healthy.NodeCompute[busiest] || (d == healthy.NodeCompute[busiest] && id < busiest) {
			busiest = id
		}
	}
	postBarrier := &faults.Plan{Crashes: []faults.Crash{{Node: busiest, At: healthy.FilterEnd + healthy.NodeCompute[busiest]/2}}}
	all := append(modes[:len(modes):len(modes)],
		mode{"mid-filter-crash", Config{Faults: midFilter, TaskOverhead: 0.001},
			func(res *Result, _ bool) bool { return res.LostOutputs > 0 && res.FilterEnd > 0.8*slowed.FilterEnd }},
		mode{"post-barrier-crash", Config{Faults: postBarrier},
			func(res *Result, _ bool) bool { return res.LostOutputs > 0 && res.FilterEnd == healthy.FilterEnd }})
	for _, m := range all {
		mapped, folded := run(m, nil), run(m, mo)
		for _, res := range []*Result{mapped, folded} {
			if !m.ran(res, counts) {
				t.Errorf("%s: the run never took the path under test (split keys %d, decodes %d, lost outputs %d)",
					m.name, res.PartitionSplitKeys, res.CodedDecodes, res.LostOutputs)
			}
			if !reflect.DeepEqual(res.Output, want) {
				t.Errorf("%s: executed output differs from the naive path (%d keys vs %d)", m.name, len(res.Output), len(want))
			}
		}
		// The MapOutput is an input, not a model change: every other
		// field — the partition plan from the pre-fold key bytes among
		// them — is the same.
		if !reflect.DeepEqual(folded.PartitionLoads, mapped.PartitionLoads) || folded.PartitionSplitKeys != mapped.PartitionSplitKeys {
			t.Errorf("%s: partition plan differs with a MapOutput: loads %v vs %v, split keys %d vs %d", m.name,
				folded.PartitionLoads, mapped.PartitionLoads, folded.PartitionSplitKeys, mapped.PartitionSplitKeys)
		}
		if !reflect.DeepEqual(folded, mapped) {
			t.Errorf("%s: Result differs between a folded MapOutput and mapped records", m.name)
		}
		results = append(results, mapped, folded)
	}
	return results
}

// countingApp counts Map invocations of the application it wraps; the
// ledger fold calls Map from several goroutines at once.
type countingApp struct {
	apps.App
	maps *atomic.Int64
}

func (a countingApp) Map(r records.Record, emit apps.Emit) {
	a.maps.Add(1)
	a.App.Map(r, emit)
}

// TestSharedMapOutputMapsOnce is the executed-plane fixture-regression
// guard, by count and not by clock: K executed jobs sharing one MapOutput
// invoke Map once per matching record in MapFile plus once per record of a
// fragment a coded job decoded (mapped from its reconstructed bytes) — not
// K times, and not twice under a partitioner; without a MapOutput each job
// is exactly one pass, the partitioner no longer adding a second.
func TestSharedMapOutputMapsOnce(t *testing.T) {
	fs := foldEnv(t)
	target, err := FilteredRecords(fs, "log", "movie-A")
	if err != nil {
		t.Fatal(err)
	}
	blocks, _ := fs.Blocks("log")
	slow := &faults.Plan{Slow: []faults.Slowdown{{Node: 3, CPU: 0.05, Disk: 0.05}, {Node: 6, CPU: 0.15, Disk: 0.15}}}
	jobs := make([]Config, 8)
	jobs[2] = Config{Mitigate: &straggle.Config{Mode: straggle.ModeCoded, Rate: 0.7}, Faults: slow, TaskOverhead: 0.001}
	jobs[5] = Config{Reducers: 5, Partition: &partition.Config{Mode: partition.ModeSkew}}
	var maps atomic.Int64
	app := countingApp{apps.WordCount{}, &maps}
	runAll := func(mo *MapOutput) (decoded int) {
		for i, cfg := range jobs {
			cfg.FS, cfg.File, cfg.TargetSub = fs.Clone(), "log", "movie-A"
			cfg.App, cfg.Picker, cfg.ExecuteApp, cfg.MapOutput = app, sched.NewLocalityPicker, true, mo
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			// A decoded unit's live stat is the only one with no scan time.
			for _, st := range res.Tasks {
				if !st.Lost && st.Scan == 0 {
					for _, r := range blocks[st.Task.Index].Records {
						if r.Sub == "movie-A" {
							decoded++
						}
					}
				}
			}
			if i == 5 && res.PartitionSplitKeys == 0 {
				t.Error("the skew job split no key")
			}
		}
		return decoded
	}

	mo, err := MapFile(fs, "log", app, "movie-A")
	if err != nil {
		t.Fatal(err)
	}
	if n := maps.Load(); n != int64(len(target)) {
		t.Fatalf("MapFile invoked Map %d times, want once per matching record (%d)", n, len(target))
	}
	maps.Store(0)
	decoded := runAll(mo)
	if decoded == 0 {
		t.Fatal("the coded job decoded nothing; the guard has no decoded records to count")
	}
	if n := maps.Load(); n != int64(decoded) {
		t.Errorf("%d jobs sharing a MapOutput invoked Map %d times, want only the %d decoded records", len(jobs), n, decoded)
	}
	maps.Store(0)
	if runAll(nil) != decoded {
		t.Error("the coded job decoded different units without a MapOutput")
	}
	if n, want := maps.Load(), int64(len(jobs)*len(target)); n != want {
		t.Errorf("%d jobs without a MapOutput invoked Map %d times, want one pass each (%d)", len(jobs), n, want)
	}
}

// TestMapOutputMismatchIsTyped: a MapOutput computed for another target,
// app, block size or file is rejected before the simulation starts — it
// must never silently produce another job's answer.
func TestMapOutputMismatchIsTyped(t *testing.T) {
	fs := foldEnv(t)
	write := func(blockSize int64, recs []records.Record) *hdfs.FileSystem {
		other, err := hdfs.NewFileSystem(cluster.MustHomogeneous(8, 2), hdfs.Config{BlockSize: blockSize, Replication: 3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := other.Write("log", recs); err != nil {
			t.Fatal(err)
		}
		return other
	}
	all, err := FilteredRecords(fs, "log", "")
	if err != nil {
		t.Fatal(err)
	}
	// The same records but for one payload, a byte longer.
	edited := append([]records.Record(nil), all...)
	edited[1].Payload += "x"
	cases := []struct {
		name   string
		fs     *hdfs.FileSystem
		app    apps.App
		target string
		ok     bool
	}{
		{"same job", fs, apps.WordCount{}, "movie-A", true},
		{"another target", fs, apps.WordCount{}, "movie-B", false},
		{"another app", fs, apps.WordHistogram{}, "movie-A", false},
		{"another block size", write(4096, all), apps.WordCount{}, "movie-A", false},
		{"another file", write(2048, edited), apps.WordCount{}, "movie-A", false},
	}
	for _, c := range cases {
		mo, err := MapFile(c.fs, "log", c.app, c.target)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := Run(Config{FS: fs, File: "log", TargetSub: "movie-A", App: apps.WordCount{},
			Picker: sched.NewLocalityPicker, ExecuteApp: true, MapOutput: mo})
		if c.ok {
			if err != nil || len(res.Output) == 0 {
				t.Errorf("%s: err %v, %d output keys", c.name, err, len(res.Output))
			}
		} else if !errors.Is(err, ErrMapOutputMismatch) || res != nil {
			t.Errorf("%s: err = %v (result %v), want ErrMapOutputMismatch and no result", c.name, err, res != nil)
		}
	}
}

// TestLedgerFoldSeesLostAndDoubleCommits: the executed output is a pure
// function of (commit ledger, block source). With every unit committed
// once it is the job's Output; with one committed id dropped, or one
// doubled, it is not — for a counting application and for one whose keys
// are all distinct — so an engine that lost or double-committed a filter
// unit could not report the reference output.
func TestLedgerFoldSeesLostAndDoubleCommits(t *testing.T) {
	fs := foldEnv(t)
	for _, app := range []apps.App{apps.WordCount{}, apps.DistributedSort{}} {
		mo, err := MapFile(fs, "log", app, "movie-A")
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{FS: fs, File: "log", TargetSub: "movie-A", App: app,
			Picker: sched.NewLocalityPicker, ExecuteApp: true})
		if err != nil {
			t.Fatal(err)
		}
		ledger := func(unit, commits int) []int {
			l := make([]int, len(mo.blocks))
			for i := range l {
				l[i] = 1
			}
			l[unit] = commits
			return l
		}
		if got := mo.Output(app, ledger(0, 1)); !reflect.DeepEqual(got, res.Output) {
			t.Fatalf("%s: the all-ones ledger folds to %d keys, the job's Output has %d", app.Name(), len(got), len(res.Output))
		}
		for unit := range mo.blocks {
			for _, commits := range []int{0, 2} {
				if got := mo.Output(app, ledger(unit, commits)); reflect.DeepEqual(got, res.Output) {
					t.Errorf("%s: unit %d committed %d times still folds to the reference output", app.Name(), unit, commits)
				}
			}
		}
	}
}

// TestLedgerFoldKeepsValueOrder: merged in run order, the runs hand every
// application exactly the serial fold's groups — every key's values in the
// serial order, its count and bytes summed — at any number of runs, over a
// ledger with a lost and a doubled unit.
func TestLedgerFoldKeepsValueOrder(t *testing.T) {
	fs := foldEnv(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, app := range apps.Extended() {
		mo, err := MapFile(fs, "log", app, "") // both sub-datasets: keys in every run
		if err != nil {
			t.Fatal(err)
		}
		ledger := make([]int, len(mo.blocks))
		for i := range ledger {
			ledger[i] = 1
		}
		ledger[1], ledger[2] = 2, 0
		fold := func(procs int) *collector {
			runtime.GOMAXPROCS(procs)
			c := newCollector(app, true)
			foldLedger(ledger, func(u int) int64 { return mo.blocks[u].bytes }, mo.source, c)
			return c
		}
		serial := fold(1)
		for _, procs := range []int{2, 3, 8} {
			if c := fold(procs); !reflect.DeepEqual(c.groups, serial.groups) {
				t.Errorf("%s: %d runs merge to other groups than the serial fold", app.Name(), procs)
			}
		}
	}
}

// TestRunBounds: the runs are contiguous, non-empty and cover every unit;
// no run outweighs its share by more than one unit; there are never more
// runs than workers or units, and a ledger with nothing to weigh is one run.
func TestRunBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 2000; i++ {
		ledger, sizes := make([]int, rng.Intn(40)), make([]int64, 0, 40)
		var total, heaviest int64
		for u := range ledger {
			ledger[u] = rng.Intn(3)
			sizes = append(sizes, int64(rng.Intn(4)*rng.Intn(1000)))
			total += sizes[u] * int64(ledger[u])
			heaviest = max(heaviest, sizes[u]*int64(ledger[u]))
		}
		w := 1 + rng.Intn(9)
		b := runBounds(ledger, func(u int) int64 { return sizes[u] }, w)
		if b[0] != 0 || b[len(b)-1] != len(ledger) || len(b)-1 > max(w, 1) || (len(ledger) > 0 && len(b)-1 > len(ledger)) {
			t.Fatalf("ledger %v sizes %v, %d workers: bounds %v", ledger, sizes, w, b)
		}
		if total == 0 && len(b) != 2 {
			t.Fatalf("nothing to weigh, %d workers: bounds %v, want one run", w, b)
		}
		for r := 1; r < len(b); r++ {
			var run int64
			for u := b[r-1]; u < b[r]; u++ {
				run += sizes[u] * int64(ledger[u])
			}
			if (b[r] <= b[r-1] && len(ledger) > 0) || run > total/int64(w)+heaviest {
				t.Fatalf("ledger %v sizes %v, %d workers: run %d of bounds %v weighs %d (total %d)", ledger, sizes, w, r, b, run, total)
			}
		}
	}
}
