package hdfs

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"datanet/internal/cluster"
	"datanet/internal/placement"
	"datanet/internal/records"
)

func mkRecords(n, payload int) []records.Record {
	recs := make([]records.Record, n)
	for i := range recs {
		recs[i] = records.Record{
			Sub:     fmt.Sprintf("sub-%d", i%7),
			Time:    int64(i),
			Payload: string(make([]byte, payload)),
		}
	}
	return recs
}

func newFS(t *testing.T, nodes int, cfg Config) *FileSystem {
	t.Helper()
	topo := cluster.MustHomogeneous(nodes, 2)
	fs, err := NewFileSystem(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestWriteSplitsIntoBlocks(t *testing.T) {
	fs := newFS(t, 8, Config{BlockSize: 1024, Seed: 1})
	recs := mkRecords(100, 60) // each ~80 bytes -> ~12 per block
	info, err := fs.Write("f", recs)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 100 {
		t.Errorf("Records = %d", info.Records)
	}
	blocks, err := fs.Blocks("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(blocks))
	}
	// Block invariants: size cap, order preservation, replication.
	var reassembled []records.Record
	for i, b := range blocks {
		if b.Bytes > 1024 {
			t.Errorf("block %d overflows: %d bytes", i, b.Bytes)
		}
		if len(b.Replicas) != DefaultReplication {
			t.Errorf("block %d has %d replicas", i, len(b.Replicas))
		}
		seen := map[cluster.NodeID]bool{}
		for _, r := range b.Replicas {
			if seen[r] {
				t.Errorf("block %d has duplicate replica %d", i, r)
			}
			seen[r] = true
		}
		reassembled = append(reassembled, b.Records...)
	}
	if !reflect.DeepEqual(reassembled, recs) {
		t.Error("blocks do not reassemble to the original records in order")
	}
	perBlock, err := fs.BlockRecords("f")
	if err != nil || len(perBlock) != len(blocks) {
		t.Fatalf("BlockRecords: %d blocks, err %v; want %d", len(perBlock), err, len(blocks))
	}
	for i, b := range blocks {
		if !reflect.DeepEqual(perBlock[i], b.Records) {
			t.Errorf("BlockRecords[%d] differs from block %d's records", i, i)
		}
	}
}

func TestWriteSingleOversizedRecord(t *testing.T) {
	fs := newFS(t, 4, Config{BlockSize: 64, Seed: 1})
	big := records.Record{Sub: "x", Payload: string(make([]byte, 500))}
	if _, err := fs.Write("big", []records.Record{big}); err != nil {
		t.Fatal(err)
	}
	blocks, _ := fs.Blocks("big")
	if len(blocks) != 1 || len(blocks[0].Records) != 1 {
		t.Fatalf("oversized record should make exactly one block: %d", len(blocks))
	}
}

func TestWriteErrors(t *testing.T) {
	fs := newFS(t, 4, Config{Seed: 1})
	if _, err := fs.Write("dup", mkRecords(1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("dup", mkRecords(1, 10)); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate write err = %v", err)
	}
	if _, err := fs.Stat("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Stat missing err = %v", err)
	}
	if _, err := fs.Blocks("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Blocks missing err = %v", err)
	}
	if _, err := fs.BlockRecords("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("BlockRecords missing err = %v", err)
	}
}

func TestNewFileSystemErrors(t *testing.T) {
	if _, err := NewFileSystem(nil, Config{}); !errors.Is(err, ErrNoTopology) {
		t.Errorf("nil topo err = %v", err)
	}
	topo := cluster.MustHomogeneous(2, 1)
	if _, err := NewFileSystem(topo, Config{Replication: 3}); !errors.Is(err, ErrReplication) {
		t.Errorf("over-replication err = %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	fs := newFS(t, 4, Config{})
	cfg := fs.Config()
	if cfg.BlockSize != DefaultBlockSize || cfg.Replication != DefaultReplication || cfg.Placement == nil {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestLocationsAndLocality(t *testing.T) {
	fs := newFS(t, 8, Config{BlockSize: 512, Seed: 3})
	fs.Write("f", mkRecords(50, 50))
	blocks, _ := fs.Blocks("f")
	for _, b := range blocks {
		locs := fs.Locations(b.ID)
		if len(locs) != DefaultReplication {
			t.Fatalf("locations = %v", locs)
		}
		// Replicas are distinct nodes of the cluster.
		seen := map[cluster.NodeID]bool{}
		for _, n := range locs {
			if n < 0 || n >= 8 || seen[n] {
				t.Errorf("block %d locations %v: bad or repeated node %d", b.ID, locs, n)
			}
			seen[n] = true
		}
	}
}

func TestNodeBlocksMatchesLocations(t *testing.T) {
	fs := newFS(t, 6, Config{BlockSize: 512, Seed: 4})
	fs.Write("f", mkRecords(60, 40))
	count := 0
	for n := 0; n < 6; n++ {
		for _, id := range fs.NodeBlocks(cluster.NodeID(n)) {
			if !slices.Contains(fs.Locations(id), cluster.NodeID(n)) {
				t.Errorf("NodeBlocks lists non-local block %d for node %d", id, n)
			}
			count++
		}
	}
	if want := len(fs.blocks) * DefaultReplication; count != want {
		t.Errorf("total replica count %d, want %d", count, want)
	}
}

func TestUsageAccounting(t *testing.T) {
	fs := newFS(t, 5, Config{BlockSize: 512, Seed: 5})
	recs := mkRecords(40, 40)
	fs.Write("f", recs)
	var total int64
	for _, u := range fs.Usage() {
		total += u
	}
	if want := records.TotalSize(recs) * int64(DefaultReplication); total != want {
		t.Errorf("usage total %d, want %d", total, want)
	}
}

func TestSubDistribution(t *testing.T) {
	fs := newFS(t, 4, Config{BlockSize: 256, Seed: 6})
	recs := mkRecords(30, 30)
	fs.Write("f", recs)
	dist, err := fs.SubDistribution("f", "sub-3")
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, d := range dist {
		got += d
	}
	if want := records.BySub(recs)["sub-3"]; got != want {
		t.Errorf("SubDistribution total = %d, want %d", got, want)
	}
	if _, err := fs.SubDistribution("missing", "x"); err == nil {
		t.Error("missing file should error")
	}
}

func TestBlockPanicsOutOfRange(t *testing.T) {
	fs := newFS(t, 4, Config{Seed: 8})
	defer func() {
		if recover() == nil {
			t.Error("Block(99) should panic")
		}
	}()
	fs.Block(99)
}

// Property: writing any record stream preserves every record exactly once,
// regardless of block size.
func TestWritePreservesRecordsQuick(t *testing.T) {
	topo := cluster.MustHomogeneous(4, 2)
	f := func(payloadLens []uint8, blockSizeRaw uint16) bool {
		blockSize := int64(blockSizeRaw)%2048 + 64
		fs, err := NewFileSystem(topo, Config{BlockSize: blockSize, Seed: 1})
		if err != nil {
			return false
		}
		recs := make([]records.Record, len(payloadLens))
		for i, l := range payloadLens {
			recs[i] = records.Record{Sub: fmt.Sprintf("s%d", i%3), Time: int64(i), Payload: string(make([]byte, int(l)))}
		}
		if _, err := fs.Write("f", recs); err != nil {
			return false
		}
		blocks, err := fs.Blocks("f")
		if err != nil {
			return false
		}
		var out []records.Record
		for _, b := range blocks {
			out = append(out, b.Records...)
		}
		if len(recs) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(out, recs)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// referenceWrite is Write as it stood when every block grew its own copy
// of the records by append; the aliasing Write must cut the same blocks
// and draw the same replicas.
func referenceWrite(fs *FileSystem, name string, recs []records.Record) {
	info := &FileInfo{}
	var cur []records.Record
	var curBytes int64
	flush := func() {
		if len(cur) == 0 {
			return
		}
		b := &Block{ID: BlockID(len(fs.blocks)), Records: cur, Bytes: curBytes}
		b.Replicas = fs.cfg.Placement.Choose(fs.topo, fs.rng, fs.cfg.Replication)
		fs.blocks = append(fs.blocks, b)
		info.Blocks = append(info.Blocks, b.ID)
		cur, curBytes = nil, 0
	}
	for _, r := range recs {
		sz := r.Size()
		if curBytes > 0 && curBytes+sz > fs.cfg.BlockSize {
			flush()
		}
		cur = append(cur, r)
		curBytes += sz
		info.Records++
	}
	flush()
	fs.files[name] = info
}

// Write hands each block a window of its input instead of a copy. The
// windows must tile the input, be closed to growth (cap == len, so an
// append to one block reallocates instead of overwriting the next block's
// first record), and be cut and placed exactly as the copying Write did —
// on the benchmark's two filesystem shapes and under every write policy.
func TestWriteAliasesInputLikeCopyingWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := make([]records.Record, 20000)
	for i := range recs {
		recs[i] = records.Record{
			Sub:     fmt.Sprintf("sub-%d", rng.Intn(40)),
			Time:    int64(i),
			Payload: string(make([]byte, 100+rng.Intn(400))),
		}
	}
	shapes := []struct {
		name         string
		nodes, racks int
		block        int64
	}{
		{"FS-A", 128, 4, 64 << 10},
		{"FS-E", 1024, 32, 16 << 10},
	}
	for _, sh := range shapes {
		for _, pol := range []func() placement.Policy{
			func() placement.Policy { return placement.Random{} },
			func() placement.Policy { return placement.RackAware{} },
			func() placement.Policy { return &placement.RoundRobin{} },
		} {
			topo := cluster.MustHomogeneous(sh.nodes, sh.racks)
			cfg := Config{BlockSize: sh.block, Placement: pol(), Seed: 9}
			fs, err := NewFileSystem(topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Placement = pol()
			ref, err := NewFileSystem(topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			info, err := fs.Write("f", recs)
			if err != nil {
				t.Fatal(err)
			}
			referenceWrite(ref, "f", append([]records.Record(nil), recs...))
			refInfo, _ := ref.Stat("f")
			if !reflect.DeepEqual(info, refInfo) {
				t.Fatalf("%s/%s: FileInfo %+v, copying Write %+v", sh.name, cfg.Placement.Name(), info, refInfo)
			}
			next := 0
			for i, b := range fs.blocks {
				rb := ref.blocks[i]
				if b.Bytes != rb.Bytes || !reflect.DeepEqual(b.Replicas, rb.Replicas) || !reflect.DeepEqual(b.Records, rb.Records) {
					t.Fatalf("%s/%s: block %d differs from the copying Write", sh.name, cfg.Placement.Name(), i)
				}
				if cap(b.Records) != len(b.Records) {
					t.Fatalf("%s: block %d has cap %d > len %d", sh.name, i, cap(b.Records), len(b.Records))
				}
				if &b.Records[0] != &recs[next] {
					t.Fatalf("%s: block %d does not start at input record %d", sh.name, i, next)
				}
				next += len(b.Records)
			}
			if next != len(recs) {
				t.Fatalf("%s: blocks cover %d of %d records", sh.name, next, len(recs))
			}
			// Growing a block must leave its neighbour untouched.
			first := fs.blocks[1].Records[0]
			_ = append(fs.blocks[0].Records, records.Record{Sub: "intruder"})
			if fs.blocks[1].Records[0] != first {
				t.Fatalf("%s: append to block 0 overwrote block 1", sh.name)
			}
		}
	}
}

// A clone is an independent name-node view of the same stored data: equal
// layout, shared record slices, its own replica map — and it refuses to
// grow, since it has no placement RNG to continue the original's sequence.
func TestCloneIsIndependent(t *testing.T) {
	fs := newFS(t, 8, Config{BlockSize: 1024, Seed: 3})
	recs := mkRecords(200, 60)
	if _, err := fs.Write("f", recs); err != nil {
		t.Fatal(err)
	}
	layout := func(fs *FileSystem) [][]cluster.NodeID {
		out := make([][]cluster.NodeID, len(fs.blocks))
		for i := range out {
			out[i] = fs.Locations(BlockID(i))
		}
		return out
	}
	before := layout(fs)
	c := fs.Clone()
	if !reflect.DeepEqual(layout(c), before) {
		t.Fatal("clone's replica map differs from the original's")
	}
	origInfo, _ := fs.Stat("f")
	cloneInfo, err := c.Stat("f")
	if err != nil || !reflect.DeepEqual(cloneInfo, origInfo) || cloneInfo == origInfo {
		t.Fatalf("clone's file info = %+v (%v), want a copy of %+v", cloneInfo, err, origInfo)
	}
	if &c.Block(0).Records[0] != &fs.Block(0).Records[0] {
		t.Error("clone copied the record slices; they are immutable and must be shared")
	}

	// A crash applied to the clone repairs the clone's replicas only.
	if moved, _ := c.FailNodes([]cluster.NodeID{1, 4}); moved == 0 {
		t.Fatal("FailNodes on the clone moved no replica; the test exercises nothing")
	}
	if reflect.DeepEqual(layout(c), before) {
		t.Error("clone's replica map unchanged after FailNodes")
	}
	if !reflect.DeepEqual(layout(fs), before) {
		t.Error("FailNodes on a clone changed the original's replica map")
	}
	// A later Write is refused, typed; the original still accepts it.
	if _, err := c.Write("g", mkRecords(10, 60)); !errors.Is(err, ErrCloneWrite) {
		t.Errorf("Write on a clone: err = %v, want ErrCloneWrite", err)
	}
	if _, err := c.Stat("g"); !errors.Is(err, ErrNotFound) {
		t.Errorf("refused Write left a file behind: %v", err)
	}
	if _, err := fs.Write("g", mkRecords(10, 60)); err != nil {
		t.Errorf("Write on the original after cloning: %v", err)
	}
}

// A file's block boundaries depend on its records and the block size
// alone: filesystems storing one log at one block size hold the same
// blocks whatever their cluster, seed, placement policy and replication,
// so anything derived from the blocks (an ElasticMap, per-block ground
// truth) may be computed once per (log, block size) and shared.
func TestBlockBoundariesDependOnRecordsAndBlockSize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := make([]records.Record, 5000)
	for i := range recs {
		recs[i] = records.Record{Sub: fmt.Sprintf("sub-%d", rng.Intn(30)), Time: int64(i), Payload: string(make([]byte, 50+rng.Intn(300)))}
	}
	blocksOf := func(nodes int, cfg Config) [][]records.Record {
		t.Helper()
		fs := newFS(t, nodes, cfg)
		if _, err := fs.Write("log", recs); err != nil {
			t.Fatal(err)
		}
		blocks, err := fs.BlockRecords("log")
		if err != nil {
			t.Fatal(err)
		}
		return blocks
	}
	want := blocksOf(8, Config{BlockSize: 16 << 10, Seed: 1})
	for _, c := range []struct {
		nodes int
		cfg   Config
	}{
		{8, Config{BlockSize: 16 << 10, Seed: 99}},
		{8, Config{BlockSize: 16 << 10, Seed: 1, Placement: placement.RackAware{}}},
		{8, Config{BlockSize: 16 << 10, Seed: 1, Placement: &placement.RoundRobin{}, Replication: 1}},
		{32, Config{BlockSize: 16 << 10, Seed: 7, Replication: 5}},
	} {
		if got := blocksOf(c.nodes, c.cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%d nodes, seed %d, %s placement, replication %d: %d blocks differ from the reference's %d",
				c.nodes, c.cfg.Seed, c.cfg.withDefaults().Placement.Name(), c.cfg.Replication, len(got), len(want))
		}
	}
	if other := blocksOf(8, Config{BlockSize: 32 << 10, Seed: 1}); len(other) == len(want) {
		t.Errorf("doubling the block size kept %d blocks", len(want))
	}
}
