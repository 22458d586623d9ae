package main

import (
	"fmt"

	"datanet"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/records"
)

// sizes fixes every input size of the benchmark. They are recorded in the
// results file; changing one starts a new baseline.
type sizes struct {
	// D1: the movie-review log every workload but suite is built from.
	Movies  int `json:"movies"`
	Reviews int `json:"reviews"`
	// FS-A: the paper's 128-node Marmot shape, ~8 blocks per node.
	ANodes int   `json:"fs_a_nodes"`
	ARacks int   `json:"fs_a_racks"`
	ABlock int64 `json:"fs_a_block_bytes"`
	// FS-E: 8× the nodes, ~4 blocks per node, for the engine alone.
	ENodes int   `json:"fs_e_nodes"`
	ERacks int   `json:"fs_e_racks"`
	EBlock int64 `json:"fs_e_block_bytes"`
	// Serving: requests per pass and key-pool size.
	WarmRequests int `json:"serve_warm_requests"`
	WarmPool     int `json:"serve_warm_pool"`
	ColdRequests int `json:"serve_cold_requests"`
	PlanNodes    int `json:"plan_nodes"`
	Clients      int `json:"clients"`
	// cluster-append: blocks loaded up front, then rounds of one append
	// followed by ReadsPerRound reads.
	BaseBlocks    int `json:"cluster_base_blocks"`
	AppendRounds  int `json:"cluster_append_rounds"`
	ReadsPerRound int `json:"cluster_reads_per_round"`
	// EngineReps scales the engine job list (plain arms ×2·reps, mitigated
	// arms ×reps).
	EngineReps int `json:"engine_reps"`
	// Sizes of isolation measurements: kernel-alone events, records per
	// generator call, keys inserted into the Bloom filter.
	SimEvents  int `json:"sim_events"`
	GenRecords int `json:"gen_records"`
	BloomKeys  int `json:"bloom_keys"`
	// SuiteWorkers is the fixed worker count of the suite workload.
	SuiteWorkers int `json:"suite_workers"`
}

// meanRecordBytes is the generator's mean record footprint, used to size
// D1 in bytes.
const meanRecordBytes = 305

// fullSizes is the benchmark. D1 is 64 MiB — a quarter of the bytes the
// issue sketched — with block sizes cut by the same factor, so both
// filesystems keep the block counts (~1 019 and ~4 080) and blocks-per-node
// shapes the issue fixed; see README.md "Budget" for why.
var fullSizes = sizes{
	Movies: 2000, Reviews: 64 << 20 / meanRecordBytes,
	ANodes: 128, ARacks: 4, ABlock: 64 << 10,
	ENodes: 1024, ERacks: 32, EBlock: 16 << 10,
	WarmRequests: 20000, WarmPool: 64, ColdRequests: 5000, PlanNodes: 128, Clients: 2,
	BaseBlocks: 768, AppendRounds: 100, ReadsPerRound: 20,
	EngineReps: 1, SimEvents: 1000000, GenRecords: 50000, BloomKeys: 100000, SuiteWorkers: 2,
}

// quickSizes is a smoke-test scale for unit tests and `-quick`; its numbers
// mean nothing.
var quickSizes = sizes{
	Movies: 60, Reviews: 6000,
	ANodes: 8, ARacks: 2, ABlock: 32 << 10,
	ENodes: 16, ERacks: 2, EBlock: 16 << 10,
	WarmRequests: 300, WarmPool: 8, ColdRequests: 200, PlanNodes: 8, Clients: 2,
	BaseBlocks: 24, AppendRounds: 6, ReadsPerRound: 5,
	EngineReps: 1, SimEvents: 20000, GenRecords: 2000, BloomKeys: 5000, SuiteWorkers: 2,
}

// fileName is the one file every benchmark filesystem holds.
const fileName = "d1"

// genD1 generates the review log from the seed.
func genD1(seed int64, sz sizes) []records.Record {
	return gen.Movies(gen.MovieConfig{Movies: sz.Movies, Reviews: sz.Reviews, SpanDays: 365, Seed: seed})
}

// writeFS writes recs to a fresh filesystem over a scaled cluster. The seed
// feeds replica placement.
func writeFS(recs []records.Record, nodes, racks int, block int64, seed int64) (*hdfs.FileSystem, error) {
	fs, err := datanet.NewFileSystem(datanet.NewScaledCluster(nodes, racks, block),
		datanet.FSConfig{BlockSize: block, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("creating filesystem: %w", err)
	}
	if _, err := fs.Write(fileName, recs); err != nil {
		return nil, fmt.Errorf("writing %s: %w", fileName, err)
	}
	return fs, nil
}

// blockRecords returns the per-block record slices of the benchmark file.
func blockRecords(fs *hdfs.FileSystem) ([][]records.Record, error) {
	blocks, err := fs.Blocks(fileName)
	if err != nil {
		return nil, err
	}
	out := make([][]records.Record, len(blocks))
	for i, b := range blocks {
		out[i] = b.Records
	}
	return out, nil
}
