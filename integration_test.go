package datanet_test

// Integration tests: cross-module flows a downstream deployment would hit,
// driven through the public API plus the internal packages the facade
// composes.

import (
	"reflect"
	"testing"

	"datanet"
	"datanet/internal/cluster"
	"datanet/internal/elasticmap"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/records"
)

// TestLifecycleWithNodeFailure: store → build meta → run; kill a node and
// let the name-node re-replicate (the repair path the engine uses); re-run. The job's *output* must be identical (the data
// never changed) even though the layout did.
func TestLifecycleWithNodeFailure(t *testing.T) {
	topo := cluster.MustHomogeneous(8, 2)
	fs, err := hdfs.NewFileSystem(topo, hdfs.Config{BlockSize: 32 << 10, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Movies(gen.MovieConfig{Movies: 150, Reviews: 6000, Seed: 10})
	if _, err := fs.Write("log", recs); err != nil {
		t.Fatal(err)
	}
	run := func() map[string]string {
		meta, err := datanet.BuildMeta(fs, "log", datanet.MetaOptions{Alpha: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := datanet.Job{
			FS: fs, File: "log", Target: gen.MovieID(0),
			App: datanet.WordCount(), Scheduler: datanet.SchedulerDataNet,
			Meta: meta, Execute: true,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Output
	}
	before := run()

	moved, lost := fs.FailNodes([]cluster.NodeID{2})
	if moved == 0 || len(lost) != 0 {
		t.Fatalf("repair moved %d replicas and lost %v", moved, lost)
	}
	if bad := fs.ReplicationHealth(); len(bad) != 0 {
		t.Fatalf("replication broken: %v", bad)
	}
	if n := len(fs.NodeBlocks(2)); n != 0 {
		t.Errorf("dead node still holds %d replicas", n)
	}

	after := run()
	if !reflect.DeepEqual(before, after) {
		t.Error("job output changed after re-replication — data integrity violated")
	}
}

// TestMetaPersistenceDrivesSameScheduling: an encoded+decoded ElasticMap
// must produce byte-identical scheduler weights.
func TestMetaPersistenceDrivesSameScheduling(t *testing.T) {
	topo := cluster.MustHomogeneous(6, 2)
	fs, err := hdfs.NewFileSystem(topo, hdfs.Config{BlockSize: 32 << 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Events(gen.EventConfig{Events: 8000, Seed: 11})
	if _, err := fs.Write("events", recs); err != nil {
		t.Fatal(err)
	}
	meta, err := datanet.BuildMeta(fs, "events", datanet.MetaOptions{Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := meta.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := datanet.DecodeMeta(blob, "events")
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range gen.EventTypes {
		if !reflect.DeepEqual(meta.Weights(sub), back.Weights(sub)) {
			t.Fatalf("weights diverge for %s after persistence", sub)
		}
	}
}

// TestParallelMetaOnRealLayout: BuildParallel over the blocks of a real
// filesystem equals the facade's sequential build.
func TestParallelMetaOnRealLayout(t *testing.T) {
	topo := cluster.MustHomogeneous(4, 2)
	fs, err := hdfs.NewFileSystem(topo, hdfs.Config{BlockSize: 32 << 10, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.WorldCup(gen.WorldCupConfig{Requests: 10000, Seed: 12})
	if _, err := fs.Write("web", recs); err != nil {
		t.Fatal(err)
	}
	meta, err := datanet.BuildMeta(fs, "web", datanet.MetaOptions{Alpha: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	blocks, _ := fs.Blocks("web")
	perBlock := make([][]records.Record, len(blocks))
	for i, b := range blocks {
		perBlock[i] = b.Records
	}
	par := elasticmap.BuildParallel(perBlock, meta.Array().Options(), 4)
	for i := 0; i < 32; i++ {
		sub := gen.TeamID(i)
		if par.Estimate(sub) != meta.Array().Estimate(sub) {
			t.Errorf("parallel estimate diverges for %s", sub)
		}
	}
}

// TestSchedulingNeverChangesResults: every scheduler must produce the
// exact same application output — scheduling is about time, not answers.
func TestSchedulingNeverChangesResults(t *testing.T) {
	topo := cluster.MustHomogeneous(6, 2)
	fs, err := hdfs.NewFileSystem(topo, hdfs.Config{BlockSize: 32 << 10, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Movies(gen.MovieConfig{Movies: 80, Reviews: 4000, Seed: 13})
	if _, err := fs.Write("log", recs); err != nil {
		t.Fatal(err)
	}
	meta, err := datanet.BuildMeta(fs, "log", datanet.MetaOptions{Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var reference map[string]string
	for _, s := range []datanet.Scheduler{
		datanet.SchedulerLocality, datanet.SchedulerDataNet,
		datanet.SchedulerCapacityAware, datanet.SchedulerMaxFlow, datanet.SchedulerLPT,
	} {
		res, err := datanet.Job{
			FS: fs, File: "log", Target: gen.MovieID(1),
			App: datanet.WordHistogram(), Scheduler: s, Meta: meta, Execute: true,
		}.Run()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if reference == nil {
			reference = res.Output
			continue
		}
		if !reflect.DeepEqual(res.Output, reference) {
			t.Errorf("%v produced different output", s)
		}
	}
}

// TestGrowingLogIncrementalMeta: append new data to a new file, extend the
// meta with Appended, and verify estimates match a from-scratch build.
func TestGrowingLogIncrementalMeta(t *testing.T) {
	topo := cluster.MustHomogeneous(4, 2)
	fs, err := hdfs.NewFileSystem(topo, hdfs.Config{BlockSize: 32 << 10, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	day1 := gen.Movies(gen.MovieConfig{Movies: 50, Reviews: 3000, Seed: 14})
	day2 := gen.Movies(gen.MovieConfig{Movies: 50, Reviews: 3000, Seed: 15})
	if _, err := fs.Write("day1", day1); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("day2", day2); err != nil {
		t.Fatal(err)
	}
	meta1, err := datanet.BuildMeta(fs, "day1", datanet.MetaOptions{Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	blocks2, _ := fs.Blocks("day2")
	per2 := make([][]records.Record, len(blocks2))
	for i, b := range blocks2 {
		per2[i] = b.Records
	}
	arr := meta1.Array().Appended(per2)

	// Reference: both days' records as one stream of blocks.
	blocks1, _ := fs.Blocks("day1")
	var all [][]records.Record
	for _, b := range blocks1 {
		all = append(all, b.Records)
	}
	all = append(all, per2...)
	ref := elasticmap.Build(all, arr.Options())
	for i := 0; i < 50; i += 7 {
		sub := gen.MovieID(i)
		if arr.Estimate(sub) != ref.Estimate(sub) {
			t.Errorf("incremental estimate diverges for %s", sub)
		}
	}
}
