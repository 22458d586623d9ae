package experiments

import (
	"sort"

	"datanet/internal/metrics"
)

// Table1 reproduces paper Table I: the size information of movies within
// one block file (the per-block 〈id, quantity〉 pairs ElasticMap stores).
// The block shown is the one holding the most target-movie data; the
// table lists its top 8 sub-datasets plus the tail count, as the paper's
// "movie 1 … movie m" row suggests.
func Table1(env *Env) (*Report, error) {
	best, bestVal := 0, int64(-1)
	for i, v := range env.BlockTruth {
		if v > bestVal {
			best, bestVal = i, v
		}
	}
	blocks, err := env.FS.Blocks(env.File)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int)
	bytes := make(map[string]int64)
	for _, rec := range blocks[best].Records {
		counts[rec.Sub]++
		bytes[rec.Sub] += rec.Size()
	}
	subs := make([]string, 0, len(counts))
	for sub := range counts {
		subs = append(subs, sub)
	}
	sort.Slice(subs, func(i, j int) bool {
		if counts[subs[i]] != counts[subs[j]] {
			return counts[subs[i]] > counts[subs[j]]
		}
		return subs[i] < subs[j]
	})

	r := newReport()
	t := metrics.NewTable("Table I — movie sizes within one block file", "id", "# of reviews", "bytes")
	show := min(len(subs), 8)
	for _, sub := range subs[:show] {
		t.Addf(sub, counts[sub], metrics.Bytes(bytes[sub]))
	}
	r.table(t)
	if len(subs) > show {
		r.linef("  … plus %d more sub-datasets in this block (long non-dominant tail)", len(subs)-show)
	}
	r.Values["block"] = float64(best)
	r.Values["subs"] = float64(len(subs))
	return r, nil
}
