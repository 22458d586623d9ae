// Package hdfs models the Hadoop Distributed File System at the level
// DataNet cares about: a dataset written to HDFS is split into fixed-size
// blocks (64 MB in the paper), each block is replicated onto several
// cluster nodes (3-way in the paper) according to a placement policy, and a
// name-node answers "which nodes hold block b" — exactly the information
// block-locality scheduling and Algorithm 1 consume.
//
// Records inside a block are real (generated) records, so meta-data
// construction scans genuine content and MapReduce applications compute
// genuine outputs.
package hdfs

import (
	"errors"
	"fmt"
	"math/rand"

	"datanet/internal/cluster"
	"datanet/internal/placement"
	"datanet/internal/records"
)

// BlockID identifies a block (dense, filesystem-wide).
type BlockID int

// DefaultBlockSize matches the paper's 64 MB chunk configuration.
const DefaultBlockSize = 64 << 20

// ScaledNodes specifies n nodes round-robin over racks whose disk, CPU and
// network rates are scaled so a block of blockSize bytes takes as long as
// a DefaultBlockSize block on default hardware; a blockSize ≤ 0 keeps the
// default rates.
func ScaledNodes(n, racks int, blockSize int64) []cluster.Node {
	scale := float64(blockSize) / float64(DefaultBlockSize)
	if scale <= 0 {
		scale = 1
	}
	specs := make([]cluster.Node, n)
	for i := range specs {
		specs[i] = cluster.Node{
			Rack:     i % racks,
			CPURate:  cluster.DefaultCPURate * scale,
			DiskRate: cluster.DefaultDiskRate * scale,
			NetRate:  cluster.DefaultNetRate * scale,
			Slots:    cluster.DefaultSlots,
		}
	}
	return specs
}

// DefaultReplication matches the paper's 3-way replication.
const DefaultReplication = 3

// Block is one HDFS block: a contiguous run of records from a file plus
// its replica locations.
type Block struct {
	ID BlockID
	// Records is the block content in file order.
	Records []records.Record
	// Bytes is the total record footprint (≤ the configured block size,
	// except when a single record exceeds it).
	Bytes int64
	// Replicas lists the nodes holding a copy, primary first.
	Replicas []cluster.NodeID
}

// SubSizes returns the ground-truth |b ∩ s| byte counts per sub-dataset.
func (b *Block) SubSizes() map[string]int64 { return records.BySub(b.Records) }

// Config controls file layout.
type Config struct {
	// BlockSize in bytes; DefaultBlockSize when zero.
	BlockSize int64
	// Replication factor; DefaultReplication when zero.
	Replication int
	// Placement chooses replica nodes; placement.Random when nil.
	Placement placement.Policy
	// Seed feeds the placement RNG so layouts are reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.Replication <= 0 {
		c.Replication = DefaultReplication
	}
	if c.Placement == nil {
		c.Placement = placement.Random{}
	}
	return c
}

// FileInfo summarizes a stored file.
type FileInfo struct {
	Blocks  []BlockID
	Records int64
}

// FileSystem is the name-node view plus block store.
type FileSystem struct {
	cfg    Config
	topo   *cluster.Topology
	rng    *rand.Rand // placement draws of Write; nil on a Clone
	blocks []*Block
	files  map[string]*FileInfo
}

// Errors returned by the filesystem API.
var (
	ErrExists      = errors.New("hdfs: file already exists")
	ErrNotFound    = errors.New("hdfs: no such file")
	ErrNoTopology  = errors.New("hdfs: nil topology")
	ErrReplication = errors.New("hdfs: replication exceeds cluster size")
	// ErrCloneWrite refuses a Write on a Clone: a clone carries no placement
	// RNG, so it could not continue the original's placement sequence.
	ErrCloneWrite = errors.New("hdfs: write to a cloned filesystem")
)

// NewFileSystem creates an empty filesystem over the given cluster.
func NewFileSystem(topo *cluster.Topology, cfg Config) (*FileSystem, error) {
	if topo == nil {
		return nil, ErrNoTopology
	}
	cfg = cfg.withDefaults()
	if cfg.Replication > topo.N() {
		return nil, ErrReplication
	}
	return &FileSystem{
		cfg:   cfg,
		topo:  topo,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		files: make(map[string]*FileInfo),
	}, nil
}

// Clone returns an independent name-node view of the same stored data:
// block headers, replica lists and file infos are copied, so maintenance
// on the clone (FailNodes) leaves fs untouched, while the immutable record slices are shared. It lets many
// jobs that crash nodes run over one written fixture without re-placing
// every block. A clone is complete as written: Write on it fails with
// ErrCloneWrite, and no trace recorder is carried over.
func (fs *FileSystem) Clone() *FileSystem {
	c := &FileSystem{
		cfg:    fs.cfg,
		topo:   fs.topo,
		blocks: make([]*Block, len(fs.blocks)),
		files:  make(map[string]*FileInfo, len(fs.files)),
	}
	for i, b := range fs.blocks {
		nb := *b
		nb.Replicas = append([]cluster.NodeID(nil), b.Replicas...)
		c.blocks[i] = &nb
	}
	for name, info := range fs.files {
		ni := *info
		ni.Blocks = append([]BlockID(nil), info.Blocks...)
		c.files[name] = &ni
	}
	return c
}

// Config returns the effective configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// Topology returns the underlying cluster.
func (fs *FileSystem) Topology() *cluster.Topology { return fs.topo }

// Write stores recs as file name, splitting into blocks of at most
// BlockSize bytes and placing Replication copies of each block.
//
// Write takes ownership of recs: each block's Records is a
// capacity-clipped sub-slice recs[i:j:j] of it, not a copy, so the caller
// must not modify the records afterwards. Several filesystems may store
// the same slice, since stored records are never written to.
func (fs *FileSystem) Write(name string, recs []records.Record) (*FileInfo, error) {
	if fs.rng == nil {
		return nil, ErrCloneWrite
	}
	if _, ok := fs.files[name]; ok {
		return nil, ErrExists
	}
	info := &FileInfo{Records: int64(len(recs))}
	start := 0
	var curBytes int64
	flush := func(end int) {
		if end == start {
			return
		}
		b := &Block{
			ID:      BlockID(len(fs.blocks)),
			Records: recs[start:end:end],
			Bytes:   curBytes,
		}
		b.Replicas = fs.cfg.Placement.Choose(fs.topo, fs.rng, fs.cfg.Replication)
		fs.blocks = append(fs.blocks, b)
		info.Blocks = append(info.Blocks, b.ID)
		start, curBytes = end, 0
	}
	for i := range recs {
		sz := recs[i].Size()
		if curBytes > 0 && curBytes+sz > fs.cfg.BlockSize {
			flush(i)
		}
		curBytes += sz
	}
	flush(len(recs))
	fs.files[name] = info
	return info, nil
}

// Stat returns file metadata.
func (fs *FileSystem) Stat(name string) (*FileInfo, error) {
	info, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return info, nil
}

// Block returns block id; it panics on an out-of-range id (programming
// error: BlockIDs only come from this filesystem).
func (fs *FileSystem) Block(id BlockID) *Block {
	if int(id) < 0 || int(id) >= len(fs.blocks) {
		panic(fmt.Sprintf("hdfs: block %d out of range [0,%d)", id, len(fs.blocks)))
	}
	return fs.blocks[id]
}

// Blocks returns the blocks of a file in order.
func (fs *FileSystem) Blocks(name string) ([]*Block, error) {
	info, err := fs.Stat(name)
	if err != nil {
		return nil, err
	}
	out := make([]*Block, len(info.Blocks))
	for i, id := range info.Blocks {
		out[i] = fs.Block(id)
	}
	return out, nil
}

// BlockRecords returns the records of each block of a file, in block
// order — the input of an ElasticMap build.
func (fs *FileSystem) BlockRecords(name string) ([][]records.Record, error) {
	blocks, err := fs.Blocks(name)
	if err != nil {
		return nil, err
	}
	out := make([][]records.Record, len(blocks))
	for i, b := range blocks {
		out[i] = b.Records
	}
	return out, nil
}

// Locations returns the replica nodes of a block (name-node query).
func (fs *FileSystem) Locations(id BlockID) []cluster.NodeID {
	out := make([]cluster.NodeID, len(fs.Block(id).Replicas))
	copy(out, fs.Block(id).Replicas)
	return out
}

// NodeBlocks returns the blocks for which node holds a replica, in id
// order (the data-node's block report).
func (fs *FileSystem) NodeBlocks(node cluster.NodeID) []BlockID {
	var out []BlockID
	for _, b := range fs.blocks {
		for _, n := range b.Replicas {
			if n == node {
				out = append(out, b.ID)
				break
			}
		}
	}
	return out
}

// Usage returns the stored bytes per node (all replicas counted).
func (fs *FileSystem) Usage() map[cluster.NodeID]int64 {
	u := make(map[cluster.NodeID]int64, fs.topo.N())
	for _, b := range fs.blocks {
		for _, n := range b.Replicas {
			u[n] += b.Bytes
		}
	}
	return u
}

// SubDistribution returns the per-block byte count of one sub-dataset over
// a file, in block order — the ground truth behind Fig. 1(a)/5(b)/8(a).
func (fs *FileSystem) SubDistribution(name, sub string) ([]int64, error) {
	blocks, err := fs.Blocks(name)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(blocks))
	for i, b := range blocks {
		for _, r := range b.Records {
			if r.Sub == sub {
				out[i] += r.Size()
			}
		}
	}
	return out, nil
}
