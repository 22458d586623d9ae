package apps

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"datanet/internal/elasticmap"
	"datanet/internal/records"
)

// This file holds the two shuffle-heavy applications that stress the
// reduce-side partitioner (internal/partition): a distributed sort whose
// global ordering comes from sampled range partitioning (arXiv
// 1506.00449), and a two-input broadcast join whose build side is located
// through a second sub-dataset's ElasticMap estimate.

// ---------------------------------------------------------------------------
// Distributed Sort

// DistributedSort orders the sub-dataset by (time, sub): Map emits one
// pair per record under its zero-padded sort key, Reduce renders each
// key's ratings in ascending order. Under range partitioning
// (partition.ModeRange) every reducer owns a contiguous key range, so
// concatenating reducer outputs in reducer order yields the globally
// sorted dataset — the property the sampled-cut-point recipe exists for.
// The app still runs correctly (same merged output) under hash or
// skew-aware partitioning; only the per-reducer contiguity is lost.
type DistributedSort struct{}

// Name implements App.
func (DistributedSort) Name() string { return "DistributedSort" }

// CostFactor implements App: comparison-based local sorting is cheap per
// byte next to TopK's similarity scoring.
func (DistributedSort) CostFactor() float64 { return 1.2 }

// OutputRatio implements App: a sort moves essentially the whole
// sub-dataset through the shuffle — the heaviest ratio of any app.
func (DistributedSort) OutputRatio() float64 { return 0.9 }

// Map implements App: emit (sort key, rating).
func (DistributedSort) Map(r records.Record, emit Emit) {
	var buf [64]byte
	k := appendPadded(append(buf[:0], 't'), r.Time, 12)
	k = append(append(k, '|'), r.Sub...)
	emit(string(k), ratingValue(r.Rating))
}

// Reduce implements App: ascending render of the key's ratings. Sorting
// first makes the fold a pure multiset function (order- and
// split-insensitive, per the App contract); a lone value is its own render.
func (DistributedSort) Reduce(key string, values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	sorted := append([]string(nil), values...)
	sort.Strings(sorted)
	return strings.Join(sorted, ",")
}

// ---------------------------------------------------------------------------
// Sub-dataset join

// SubDatasetJoin is the two-input application: it joins the probe
// sub-dataset's records (the engine's TargetSub) against a build-side
// table aggregated from a *second* sub-dataset, keyed by time window — a
// broadcast hash join, with the build table small enough to ship to every
// mapper. Map emits the probe record's rating under its window key;
// Reduce folds each window's probe ratings (count and exact mean) and
// annotates the window with the build side's value, or "-" for a probe
// window the build sub-dataset never visited (left outer join).
type SubDatasetJoin struct {
	// BuildSub names the second (build-side) sub-dataset.
	BuildSub string
	// WindowSeconds is the join key granularity.
	WindowSeconds int64

	build map[string]string
}

// NewSubDatasetJoin creates the probe-side app over an explicit build
// table (window key → build value), as produced by BuildJoinSide.
func NewSubDatasetJoin(buildSub string, windowSeconds int64, build map[string]string) SubDatasetJoin {
	if windowSeconds <= 0 {
		windowSeconds = 3600 * 24
	}
	return SubDatasetJoin{BuildSub: buildSub, WindowSeconds: windowSeconds, build: build}
}

// Name implements App.
func (SubDatasetJoin) Name() string { return "SubDatasetJoin" }

// CostFactor implements App: per-record bucketing plus a hash probe.
func (SubDatasetJoin) CostFactor() float64 { return 1.8 }

// OutputRatio implements App.
func (SubDatasetJoin) OutputRatio() float64 { return 0.12 }

// JoinKey is the window key a time falls into.
func (a SubDatasetJoin) JoinKey(t int64) string {
	w := a.WindowSeconds
	if w <= 0 {
		w = 3600 * 24
	}
	return paddedKey("j", t/w, 10)
}

// Map implements App: emit (window, rating) for the probe record.
func (a SubDatasetJoin) Map(r records.Record, emit Emit) {
	emit(a.JoinKey(r.Time), ratingValue(r.Rating))
}

// Reduce implements App: fold the window's probe side and join the build
// side. Count and sum are multiset functions (ratings are generated on
// dyadic grids, so the float sum is exact in any order), keeping the
// contract.
func (a SubDatasetJoin) Reduce(key string, values []string) string {
	n, avg := meanOfParsed(values)
	build, ok := a.build[key]
	if !ok {
		build = "-"
	}
	return fmt.Sprintf("n=%d avg=%s %s=%s", n, avg, a.BuildSub, build)
}

// BuildJoinSide aggregates the join's build table from the second
// sub-dataset, reading only the blocks its ElasticMap distribution
// reports as containing it — the paper's I/O-skipping optimization
// applied to the build input (§V-B: "we don't need to process blocks that
// don't contain our target data"). blocks is the file's full record
// layout (one slice per block, same indexing the Array was built from);
// dist is Array.Distribution(buildSub). The table maps each window the
// build sub-dataset appears in to "count×mean" of its ratings there.
func BuildJoinSide(blocks [][]records.Record, dist []elasticmap.BlockEstimate, buildSub string, windowSeconds int64) map[string]string {
	if windowSeconds <= 0 {
		windowSeconds = 3600 * 24
	}
	key := SubDatasetJoin{WindowSeconds: windowSeconds}
	type agg struct {
		n   int
		sum float64
	}
	aggs := make(map[string]*agg)
	for _, be := range dist {
		if be.Size <= 0 || be.Block < 0 || be.Block >= len(blocks) {
			continue
		}
		for _, r := range blocks[be.Block] {
			if r.Sub != buildSub {
				continue
			}
			k := key.JoinKey(r.Time)
			a := aggs[k]
			if a == nil {
				a = &agg{}
				aggs[k] = a
			}
			a.n++
			a.sum += r.Rating
		}
	}
	out := make(map[string]string, len(aggs))
	for k, a := range aggs {
		out[k] = fmt.Sprintf("%dx%s", a.n, strconv.FormatFloat(a.sum/float64(a.n), 'f', 4, 64))
	}
	return out
}

// Extended returns every registered application: the four paper apps plus
// Sessionize and the shuffle-heavy additions (DistributedSort;
// SubDatasetJoin with a fixed demo build table so the instance is
// deterministic). All() is left unchanged so existing experiment goldens
// keep their app set.
func Extended() []App {
	build := map[string]string{}
	join := NewSubDatasetJoin("movie-00001", 3600*24, build)
	for w := int64(0); w < 64; w++ {
		build[join.JoinKey(w*3600*24)] = fmt.Sprintf("%dx%s", w+1, strconv.FormatFloat(3.5, 'f', 4, 64))
	}
	return append(All(), NewSessionize(1800), DistributedSort{}, join)
}
