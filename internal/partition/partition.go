// Package partition is the reduce-side half of DataNet's skew handling.
// ElasticMap's distribution knowledge schedules the *map* phase around
// sub-dataset skew, but a hash partitioner re-creates the same imbalance
// at the reducers: every occurrence of one intermediate key lands on the
// hash-chosen reducer, so a zipfian key distribution turns the reduce
// phase into one straggling reducer. This package extends the observed
// distribution into reduce partitioning (the key-distribution
// load-balancing approach of arXiv 1401.0355) plus sampled range
// partitioning for distributed sort (arXiv 1506.00449).
//
// Three interchangeable strategies live behind the Partitioner interface:
//
//   - Hash — the blind baseline: FNV-1a(key) mod R, the exact hash every
//     other layer shares via internal/hashutil. No plan state; the
//     assignment ignores frequencies entirely.
//   - SkewAware — a greedy bin-packer seeded from the key frequencies
//     harvested during the analysis-map phase: keys are placed
//     heaviest-first onto the least-loaded reducer, and keys too heavy
//     for any single reducer are split across several (sound only for
//     order- and split-insensitive Reduce functions — the contract
//     documented on apps.App). A fallback guard keeps the plan never
//     worse than hash on the max-reducer-load objective.
//   - Range — cut points from a weighted reservoir sample of the key
//     stream; contiguous key ranges per reducer, which is what a
//     distributed sort needs for its concatenated output to be globally
//     ordered.
//
// All three implement the same contract, checked by the tests'
// checkAssignment and fuzzed by FuzzPartitionPlan: every key maps to exactly one reducer in
// [0, R) (splits excepted — a split key maps to a fixed, duplicate-free
// set), the assignment is deterministic, and planned per-reducer loads
// conserve the total key frequency.
package partition

import (
	"errors"
	"fmt"
	"sort"

	"datanet/internal/hashutil"
)

// Mode selects the partitioning strategy.
type Mode string

// Modes.
const (
	// ModeOff disables key-aware partitioning (the zero value ""): the
	// engine gives every reducer the same 1/R share of the map output.
	ModeOff Mode = "off"
	// ModeHash assigns keys blindly by FNV-1a mod reducers.
	ModeHash Mode = "hash"
	// ModeSkew bin-packs keys by observed frequency, splitting heavy keys.
	ModeSkew Mode = "skew"
	// ModeRange cuts the sorted key space into contiguous reducer ranges
	// from a weighted reservoir sample.
	ModeRange Mode = "range"
)

// Errors.
var (
	// ErrMode reports an unknown partition mode string.
	ErrMode = errors.New("partition: unknown partition mode")
	// ErrPlan reports an invalid Plan call (no reducers).
	ErrPlan = errors.New("partition: invalid plan")
)

// Modes lists every partition mode, in the order the CLI documents them.
var Modes = []Mode{ModeOff, ModeHash, ModeSkew, ModeRange}

// String names the mode as the CLI spells it.
func (m Mode) String() string { return string(m) }

// Set parses a CLI mode name ("" is an alias of off), making *Mode a
// flag.Value. The engine validates a Config's mode through it too, so a
// mode built without Set fails the job with the same typed error.
func (m *Mode) Set(s string) error {
	if s == "" {
		s = string(ModeOff)
	}
	for _, v := range Modes {
		if v.String() == s {
			*m = v
			return nil
		}
	}
	return fmt.Errorf("%w: %q (want off, hash, skew or range)", ErrMode, s)
}

// Config parameterizes the reduce-side partitioner a job runs with. The
// zero value (and a nil pointer) means off.
type Config struct {
	// Mode selects the strategy ("", "off", "hash", "skew", "range").
	Mode Mode
	// SampleSize bounds the range partitioner's key reservoir (default
	// 256 keys).
	SampleSize int
	// Seed drives the range partitioner's reservoir sampling. The same
	// seed always draws the same sample, so plans replay bit-identically.
	Seed int64
	// MaxSplit caps how many reducers one heavy key may be split across
	// in skew mode (default: the reducer count).
	MaxSplit int
}

// Enabled reports whether the config turns key-aware partitioning on.
func (c *Config) Enabled() bool {
	return c != nil && c.Mode != "" && c.Mode != ModeOff
}

// New builds the configured partitioner. Off mode returns nil.
func New(c *Config) Partitioner {
	if !c.Enabled() {
		return nil
	}
	switch c.Mode {
	case ModeSkew:
		return &SkewAware{MaxSplit: c.MaxSplit}
	case ModeRange:
		return &Range{SampleSize: c.SampleSize, Seed: c.Seed}
	default:
		return &Hash{}
	}
}

// Partitioner maps intermediate keys to reduce tasks. Plan is called once
// per job with the key frequencies (output bytes per key) harvested
// during the analysis-map phase; Splits answers per-key routing
// afterwards. Implementations must be deterministic: the same
// (keyFreqs, reducers) plan must produce the same assignment on every
// call and every replay.
type Partitioner interface {
	// Name identifies the strategy ("hash", "skew", "range").
	Name() string
	// Plan fixes the key → reducer assignment for this job. keyFreqs maps
	// each intermediate key to its observed map-output bytes; reducers is
	// the reduce-task count.
	Plan(keyFreqs map[string]int64, reducers int) error
	// Splits returns the reducer set in [0, reducers) a key's values are
	// spread across, in fixed order; the first is the key's merge
	// reducer. Unsplit keys return the one reducer that owns them.
	Splits(key string) []int
	// Loads returns the planned per-reducer key bytes (length = reducers,
	// summing to the total planned frequency). Unplanned keys assigned
	// later (hash mode's unknown keys) are not included.
	Loads() []int64
}

// sortedKeys returns freqs' keys in ascending order — every planner
// iterates the map through this so plans are deterministic.
func sortedKeys(freqs map[string]int64) []string {
	keys := make([]string, 0, len(freqs))
	for k := range freqs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---------------------------------------------------------------------------
// Hash — the blind baseline.

// Hash is the classic hash partitioner: FNV-1a(key) mod reducers, via the
// shared internal/hashutil implementation (bit-compatible with hash/fnv).
// It ignores the key frequencies entirely — which is exactly the blindness
// the skew-aware planner removes.
type Hash struct {
	reducers int
	loads    []int64
}

// Name implements Partitioner.
func (*Hash) Name() string { return string(ModeHash) }

// Plan implements Partitioner: record the reducer count and the per-
// reducer loads the hash assignment implies for the observed keys.
func (h *Hash) Plan(keyFreqs map[string]int64, reducers int) error {
	if reducers < 1 {
		return fmt.Errorf("%w: %d reducers", ErrPlan, reducers)
	}
	h.reducers = reducers
	h.loads = make([]int64, reducers)
	for k, f := range keyFreqs {
		h.loads[hashAssign(k, reducers)] += f
	}
	return nil
}

// Assign implements Partitioner.
func (h *Hash) Assign(key string) int { return hashAssign(key, h.reducers) }

// Splits implements Partitioner: hash never splits.
func (h *Hash) Splits(key string) []int { return []int{h.Assign(key)} }

// Loads implements Partitioner.
func (h *Hash) Loads() []int64 { return h.loads }

// hashAssign is the one hash rule all modes share (skew mode uses it to
// spread a split key's values): FNV-1a mod R.
func hashAssign(key string, reducers int) int {
	if reducers <= 1 {
		return 0
	}
	return int(hashutil.Sum64String(key) % uint64(reducers))
}

// MaxLoad returns the largest planned per-reducer load.
func MaxLoad(p Partitioner) int64 {
	var max int64
	for _, l := range p.Loads() {
		if l > max {
			max = l
		}
	}
	return max
}
