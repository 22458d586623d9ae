package mapreduce

// Exports for the external test package, which holds the engine reference
// model and its campaign: internal/chaos imports this package, so a test
// that drives chaos plans cannot live inside it.

// The cost model's fixed rates.
const (
	FilterCostFactor = filterCostFactor
	ReduceCostFactor = reduceCostFactor
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

// ModelDiff checks one job against the reference model, which the external
// test package holds and sets this to: it returns the first line where the
// engine's and the model's accounts of the job differ ("" when none) and the
// engine's error.
var ModelDiff func(Config) (string, error)
