package experiments

import (
	"fmt"
	"sort"
	"strings"

	"datanet/internal/metrics"
)

// Table1Result reproduces paper Table I: the size information of movies
// within one block file (the per-block 〈id, quantity〉 pairs ElasticMap
// stores). The block shown is the one holding the most target-movie data.
type Table1Result struct {
	Env      *Env
	BlockIdx int
	// Entries are the block's sub-datasets, largest first.
	Entries []Table1Entry
}

// Table1Entry is one 〈id, reviews, bytes〉 row.
type Table1Entry struct {
	Sub     string
	Reviews int
	Bytes   int64
}

// Table1 runs the experiment (reusing an existing env when provided).
func Table1(env *Env) (*Table1Result, error) {
	// Pick the block with the most target data.
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
	res := &Table1Result{Env: env, BlockIdx: best}
	for sub, c := range counts {
		res.Entries = append(res.Entries, Table1Entry{Sub: sub, Reviews: c, Bytes: bytes[sub]})
	}
	sort.Slice(res.Entries, func(i, j int) bool {
		if res.Entries[i].Reviews != res.Entries[j].Reviews {
			return res.Entries[i].Reviews > res.Entries[j].Reviews
		}
		return res.Entries[i].Sub < res.Entries[j].Sub
	})
	return res, nil
}

// String renders the table (top 8 plus the tail count, as the paper's
// "movie 1 … movie m" row suggests).
func (r *Table1Result) String() string {
	t := metrics.NewTable("Table I — movie sizes within one block file", "id", "# of reviews", "bytes")
	show := len(r.Entries)
	if show > 8 {
		show = 8
	}
	for _, e := range r.Entries[:show] {
		t.Addf(e.Sub, e.Reviews, metrics.Bytes(e.Bytes))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	if len(r.Entries) > show {
		fmt.Fprintf(&sb, "  … plus %d more sub-datasets in this block (long non-dominant tail)\n", len(r.Entries)-show)
	}
	return sb.String()
}
