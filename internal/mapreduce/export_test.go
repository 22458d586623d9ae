package mapreduce

import (
	"maps"
	"sync"
)

// Exports for the external test package, which holds the engine reference
// model and its campaign: internal/chaos imports this package, so a test
// that drives chaos plans cannot live inside it.

// The cost model's fixed rates.
const (
	FilterCostFactor = filterCostFactor
	CrossRackPenalty = crossRackPenalty
)

var (
	GoldenEnv        = goldenEnv
	GoldenSchedulers = goldenSchedulers
	GoldenPlans      = goldenPlans
	GoldenConfig     = goldenConfig
	DumpResult       = dumpResult
	CheckGolden      = checkGolden
	HeteroSlotsEnv   = heteroSlotsEnv
	HeteroSlotsPlan  = heteroSlotsPlan
)

// barriers maps the filesystem of each RunAtBarrier job to the copy of its
// Result the filter barrier fills.
var barriers sync.Map

// RunAtBarrier runs cfg like Run and also returns its Result as the filter
// barrier left it: a crash after the barrier adds to NodeCrashes,
// TasksRetried, LostOutputs, ReplicasRepaired and NodeWorkload. The job
// must run on a filesystem no concurrent job shares.
func RunAtBarrier(cfg Config) (res, atBarrier *Result, err error) {
	atBarrier = new(Result)
	barriers.Store(cfg.FS, atBarrier)
	defer barriers.Delete(cfg.FS)
	res, err = Run(cfg)
	return res, atBarrier, err
}

// noteBarrier fills the RunAtBarrier copy of s's job, if it has one.
func noteBarrier(s *filterSim) {
	if at, ok := barriers.Load(s.cfg.FS); ok {
		*at.(*Result) = *s.res
		at.(*Result).NodeWorkload = maps.Clone(s.res.NodeWorkload)
	}
}
