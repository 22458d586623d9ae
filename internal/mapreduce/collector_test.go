package mapreduce

import (
	"reflect"
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
// application a key below, exactly at and several times past combineAt
// values: 5×combineAt+7 records saying "hot" in session window 0,
// combineAt saying "exact" in window 1 and 3 saying "rare" in window 2.
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
	add(5*combineAt+7, 0, "hot")
	add(combineAt, 1, "exact")
	add(3, 2, "rare")
	if _, err := fs.Write("log", recs); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestExecutedOutputMatchesNaivePath: for every registered application an
// executed job's Output is what the naive data path computes — every
// emitted value of a key held in a map[string][]string, then one Reduce —
// whether the collector's values reach Reduce directly, dealt across a
// split heavy key's shards (where they are partials, for a Combiner app),
// or partly through a decoded coded fragment.
func TestExecutedOutputMatchesNaivePath(t *testing.T) {
	fs := foldEnv(t)
	target, err := FilteredRecords(fs, "log", "movie-A")
	if err != nil {
		t.Fatal(err)
	}
	slow := &faults.Plan{Slow: []faults.Slowdown{{Node: 3, CPU: 0.05, Disk: 0.05}, {Node: 6, CPU: 0.15, Disk: 0.15}}}
	modes := []struct {
		name string
		cfg  Config
		// ran reports whether the run exercised the path the mode is for;
		// only an app that folds must have a split key (DistributedSort's
		// keys are all distinct, so none of them is heavy).
		ran func(res *Result, folds bool) bool
	}{
		{"plain", Config{}, func(*Result, bool) bool { return true }},
		{"skew-split", Config{Reducers: 5, Partition: &partition.Config{Mode: partition.ModeSkew}},
			func(res *Result, folds bool) bool { return !folds || res.PartitionSplitKeys > 0 }},
		{"coded-decoded", Config{Mitigate: &straggle.Config{Mode: straggle.ModeCoded, Rate: 0.7}, Faults: slow, TaskOverhead: 0.001},
			func(res *Result, _ bool) bool { return res.CodedDecodes > 0 }},
	}
	for _, app := range apps.Extended() {
		t.Run(app.Name(), func(t *testing.T) {
			groups := make(map[string][]string)
			for _, r := range target {
				app.Map(r, func(k, v string) { groups[k] = append(groups[k], v) })
			}
			want := make(map[string]string, len(groups))
			var below, exact, several bool
			for k, vs := range groups {
				want[k] = app.Reduce(k, vs)
				below = below || len(vs) < combineAt
				exact = exact || len(vs) == combineAt
				several = several || len(vs) >= 3*combineAt
			}
			_, folds := app.(apps.Combiner)
			if folds && !(below && exact && several) {
				t.Fatalf("fixture lacks a key below (%v), at (%v) or several times (%v) combineAt", below, exact, several)
			}
			for _, m := range modes {
				cfg := m.cfg
				cfg.FS, cfg.File, cfg.TargetSub = fs, "log", "movie-A"
				cfg.App, cfg.Picker, cfg.ExecuteApp = app, sched.NewLocalityPicker, true
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				if !m.ran(res, folds) {
					t.Errorf("%s: the run never took the path under test (split keys %d, decodes %d)",
						m.name, res.PartitionSplitKeys, res.CodedDecodes)
				}
				if !reflect.DeepEqual(res.Output, want) {
					t.Errorf("%s: executed output differs from the naive path (%d keys vs %d)", m.name, len(res.Output), len(want))
				}
			}
		})
	}
}
