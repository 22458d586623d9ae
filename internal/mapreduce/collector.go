package mapreduce

import (
	"runtime"
	"sync"

	"datanet/internal/apps"
	"datanet/internal/hdfs"
	"datanet/internal/partition"
	"datanet/internal/records"
)

// The executed plane: the collector, the per-block map output a fixture
// computes once, and the fold of the commit ledger into Result.Output.

// group is one key's intermediate state: the values Reduce will see, how
// many pairs were emitted under the key, and the bytes of those pairs —
// the key frequency a partitioner plans from.
type group struct {
	vals  []string
	n     int64
	bytes int64
}

// collector accumulates intermediate pairs: one group per key, reached by
// a single map lookup per emit. Only an executed job keeps the values; one
// that merely partitions needs the bytes. An apps.Counter application's
// values are all "1", so its job keeps the count alone. Either way a
// pair's bytes are len(k)+len(v) at the emit, so the partition plan does
// not depend on what the collector keeps, and the shuffle volume is
// OutputRatio × matched bytes anyway.
type collector struct {
	groups map[string]*group
	keep   bool // hold the value strings
}

func newCollector(app apps.App, execute bool) *collector {
	_, counts := app.(apps.Counter)
	return &collector{groups: make(map[string]*group), keep: execute && !counts}
}

func (c *collector) emit(k, v string) {
	g := c.at(k)
	g.bytes += int64(len(k) + len(v))
	g.n++
	if c.keep {
		g.vals = append(g.vals, v)
	}
}

func (c *collector) at(k string) *group {
	g := c.groups[k]
	if g == nil {
		g = new(group)
		c.groups[k] = g
	}
	return g
}

// mapRecords maps the target sub-dataset's records (all, if target is empty).
func (c *collector) mapRecords(recs []records.Record, app apps.App, target string) {
	emit := c.emit // one method value per block, not one per record
	for _, r := range recs {
		if target == "" || r.Sub == target {
			app.Map(r, emit)
		}
	}
}

// MapOutput is one file's map output under one (App, TargetSub), block by
// block. A block's map output is a pure function of its immutable records,
// so the caller that owns a fixture computes it once (MapFile) and every
// job over the fixture folds it through Config.MapOutput. Read-only.
type MapOutput struct {
	app, target string
	blocks      []blockOutput
}

// blockOutput is one block's groups plus what matches compares to the file.
type blockOutput struct {
	records int
	bytes   int64
	groups  map[string]*group
}

// MapFile maps every block of the file once.
func MapFile(fs *hdfs.FileSystem, file string, app apps.App, target string) (*MapOutput, error) {
	blocks, err := fs.Blocks(file)
	if err != nil {
		return nil, err
	}
	mo := &MapOutput{app: app.Name(), target: target, blocks: make([]blockOutput, len(blocks))}
	for i, b := range blocks {
		c := newCollector(app, true)
		c.mapRecords(b.Records, app, target)
		mo.blocks[i] = blockOutput{len(b.Records), b.Bytes, c.groups}
	}
	return mo, nil
}

// matches reports whether mo was computed for the job's app, target and blocks.
func (mo *MapOutput) matches(cfg Config, blocks []*hdfs.Block) bool {
	ok := mo.app == cfg.App.Name() && mo.target == cfg.TargetSub && len(mo.blocks) == len(blocks)
	for i := 0; ok && i < len(blocks); i++ {
		ok = mo.blocks[i].records == len(blocks[i].Records) && mo.blocks[i].bytes == blocks[i].Bytes
	}
	return ok
}

// source feeds one block's stored groups into c.
func (mo *MapOutput) source(block int, c *collector) {
	for k, sg := range mo.blocks[block].groups {
		g := c.at(k)
		g.bytes += sg.bytes
		g.n += sg.n
		if c.keep {
			g.vals = append(g.vals, sg.vals...)
		}
	}
}

// Output reduces mo folded over a commit ledger (live commits per block):
// the Output of an executed job whose simulation ended with that ledger.
func (mo *MapOutput) Output(app apps.App, ledger []int) map[string]string {
	c := newCollector(app, true)
	foldLedger(ledger, func(u int) int64 { return mo.blocks[u].bytes }, mo.source, c)
	return c.reduce(app, nil)
}

// foldLedger produces the executed output as a fold over the commit ledger:
// each systematic filter unit, in block order, has src feed its pairs into
// a collector once per live commit — so a unit lost or committed twice
// changes Output. The units are cut into GOMAXPROCS contiguous runs of
// about equal size(unit) × commits, each folded on its own goroutine into
// its own collector, and c receives the runs merged in run order: a key's
// values, count and bytes are exactly the serial fold's, the values in the
// serial fold's order. src must be safe for concurrent calls on distinct
// collectors.
func foldLedger(ledger []int, size func(unit int) int64, src func(unit int, c *collector), c *collector) {
	bounds := runBounds(ledger, size, runtime.GOMAXPROCS(0))
	runs := make([]*collector, len(bounds)-1)
	var wg sync.WaitGroup
	for i := range runs {
		runs[i] = &collector{groups: make(map[string]*group), keep: c.keep}
		wg.Add(1)
		go func(run *collector, lo, hi int) {
			defer wg.Done()
			for u := lo; u < hi; u++ {
				for commits := ledger[u]; commits > 0; commits-- {
					src(u, run)
				}
			}
		}(runs[i], bounds[i], bounds[i+1])
	}
	wg.Wait()
	c.merge(runs)
}

// runBounds cuts the units [0, len(ledger)) into at most w contiguous runs
// of about equal size(unit) × commits and returns the cut points, 0 and
// len(ledger) included. A run is empty only when the ledger is, and a
// ledger with nothing to weigh is one run.
func runBounds(ledger []int, size func(unit int) int64, w int) []int {
	weight := func(u int) int64 { return size(u) * int64(ledger[u]) }
	var total int64
	for u := range ledger {
		total += weight(u)
	}
	bounds := make([]int, 1, w+1)
	var acc int64
	for u := 0; u+1 < len(ledger); u++ {
		acc += weight(u)
		if k := int64(len(bounds)); k < int64(w) && acc > 0 && acc*int64(w) >= total*k {
			bounds = append(bounds, u+1)
		}
	}
	return append(bounds, len(ledger))
}

// merge sets c's groups to the runs' groups concatenated in run order: per
// key the counts and bytes summed and the values in one exactly sized
// slice. A lone run is taken as it is, and a key one run alone holds keeps
// that run's group.
func (c *collector) merge(runs []*collector) {
	if len(runs) == 1 {
		c.groups = runs[0].groups
		return
	}
	// The union of the runs' keys, counted so the map is built at its size.
	union := 0
	for r, run := range runs {
		for k := range run.groups {
			if !heldBefore(runs[:r], k) {
				union++
			}
		}
	}
	c.groups = make(map[string]*group, union)
	for r, run := range runs {
		for k, g := range run.groups {
			if c.groups[k] != nil {
				continue // merged when its first run was
			}
			held, later := len(g.vals), runs[r+1:]
			for _, lr := range later {
				if lg := lr.groups[k]; lg != nil {
					g.bytes += lg.bytes
					g.n += lg.n
					held += len(lg.vals)
				}
			}
			if held > len(g.vals) {
				vals := append(make([]string, 0, held), g.vals...)
				for _, lr := range later {
					if lg := lr.groups[k]; lg != nil {
						vals = append(vals, lg.vals...)
					}
				}
				g.vals = vals
			}
			c.groups[k] = g
		}
	}
}

// heldBefore reports whether any of runs holds key k.
func heldBefore(runs []*collector, k string) bool {
	for _, run := range runs {
		if run.groups[k] != nil {
			return true
		}
	}
	return false
}

// reduce runs the final reduce over the grouped pairs. An apps.Counter
// application reduces each key's count once: a count does not depend on
// how a split key's values were dealt. Otherwise, when a partitioner split
// a heavy key across reducers (skew mode), the key's values are dealt
// round-robin to the split shards exactly as the shuffle would deliver
// them, then the merge reducer re-concatenates the shards in split order
// and reduces once — so the value order the final Reduce sees genuinely
// depends on the split layout. An order- or split-sensitive Reduce
// (violating the apps.App contract) therefore surfaces as an output
// divergence in the partition-independence harness instead of hiding
// behind a canonical ordering.
func (c *collector) reduce(app apps.App, part partition.Partitioner) map[string]string {
	out := make(map[string]string, len(c.groups))
	counter, _ := app.(apps.Counter)
	for k, g := range c.groups {
		if counter != nil {
			out[k] = counter.ReduceCount(k, g.n)
			continue
		}
		vs := g.vals
		if part != nil {
			if splits := part.Splits(k); len(splits) > 1 {
				shards := make([][]string, len(splits))
				for i, v := range vs {
					shards[i%len(splits)] = append(shards[i%len(splits)], v)
				}
				merged := make([]string, 0, len(vs))
				for _, shard := range shards {
					merged = append(merged, shard...)
				}
				out[k] = app.Reduce(k, merged)
				continue
			}
		}
		out[k] = app.Reduce(k, vs)
	}
	return out
}
