package sched

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"datanet/internal/cluster"
	"datanet/internal/hdfs"
)

// mapLocality is the locality picker as built before its queues were
// carved from one array: a map of appended per-node slices, and LPT's
// order by a stable sort of Task values. It is the reference the pick
// sequences are compared with.
type mapLocality struct {
	localRule, remoteRule string
	tasks                 []Task
	taken                 []bool
	byNode                map[cluster.NodeID][]int
	remain                int
	nextRem               int
}

func newMapLocality(tasks []Task, localRule, remoteRule string) *mapLocality {
	p := &mapLocality{
		localRule:  localRule,
		remoteRule: remoteRule,
		tasks:      tasks,
		taken:      make([]bool, len(tasks)),
		byNode:     make(map[cluster.NodeID][]int),
		remain:     len(tasks),
	}
	for i, t := range tasks {
		for _, n := range t.Locations {
			p.byNode[n] = append(p.byNode[n], i)
		}
	}
	return p
}

func newMapLPT(tasks []Task) *mapLocality {
	order := slices.Clone(tasks)
	slices.SortStableFunc(order, func(a, b Task) int { return cmp.Compare(b.Weight, a.Weight) })
	return newMapLocality(order, "lpt.local", "lpt.remote")
}

func (p *mapLocality) Next(node cluster.NodeID) (Task, string, bool) {
	if p.remain == 0 {
		return Task{}, "", false
	}
	queue := p.byNode[node]
	for len(queue) > 0 && p.taken[queue[0]] {
		queue = queue[1:]
	}
	p.byNode[node] = queue
	if len(queue) > 0 {
		return p.take(queue[0]), p.localRule, true
	}
	for p.taken[p.nextRem] {
		p.nextRem++
	}
	return p.take(p.nextRem), p.remoteRule, true
}

func (p *mapLocality) take(i int) Task {
	p.taken[i] = true
	p.remain--
	return p.tasks[i]
}

// pickerInstance draws tasks whose replicas sit on a few gapped node IDs
// (up to 40), some with no replica and some naming one node twice, with
// weights from a small set so LPT's order has many ties. A sparse instance
// has the serving shape instead: ≈ 94% zero weights, a few heavy ones.
func pickerInstance(r *rand.Rand, sparse bool) []Task {
	nodes := make([]cluster.NodeID, 1+r.Intn(6))
	for i := range nodes {
		nodes[i] = cluster.NodeID(r.Intn(41))
	}
	tasks := make([]Task, r.Intn(60))
	for j := range tasks {
		var locs []cluster.NodeID
		switch r.Intn(6) {
		case 0: // no replica at all
		case 1: // one node named twice
			n := nodes[r.Intn(len(nodes))]
			locs = []cluster.NodeID{n, n}
		default:
			for k := 0; k < 1+r.Intn(3); k++ {
				locs = append(locs, nodes[r.Intn(len(nodes))])
			}
		}
		w := int64(r.Intn(4)) * 100
		if sparse {
			w = 0
			if r.Intn(16) == 0 {
				w = 1 + r.Int63n(3)*500
			}
		}
		tasks[j] = Task{Block: hdfs.BlockID(j), Index: j, Weight: w, Bytes: w, Locations: locs}
	}
	return tasks
}

// The array-queue locality and LPT pickers make exactly the picks, with
// exactly the rules, of the map-based ones, under pulls from nodes that
// hold replicas, nodes that hold none (inside the gaps and past the
// largest ID) and negative IDs. The last 300 trials are sparse.
func TestLocalityPickerMatchesMapQueues(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 600; trial++ {
		tasks := pickerInstance(r, trial >= 300)
		pulls := make([]cluster.NodeID, 4*len(tasks)+8)
		for i := range pulls {
			pulls[i] = cluster.NodeID(r.Intn(50) - 2)
		}
		for _, c := range []struct {
			name string
			got  Picker
			want *mapLocality
		}{
			{"locality", NewLocalityPicker(slices.Clone(tasks), nil), newMapLocality(slices.Clone(tasks), "locality.local-fifo", "locality.remote-fifo")},
			{"lpt", NewLPTPicker(tasks, nil), newMapLPT(tasks)},
		} {
			for i, node := range pulls {
				gt, grule, gok := c.got.Next(node)
				wt, wrule, wok := c.want.Next(node)
				if gt.Index != wt.Index || grule != wrule || gok != wok {
					t.Fatalf("trial %d %s pull %d on node %d: got (%d, %q, %v), want (%d, %q, %v)\n%s",
						trial, c.name, i, node, gt.Index, grule, gok, wt.Index, wrule, wok, taskList(tasks))
				}
			}
			if c.got.Remaining() != 0 {
				t.Fatalf("trial %d %s: %d tasks left after every pull", trial, c.name, c.got.Remaining())
			}
		}
	}
}

func taskList(tasks []Task) string {
	s := ""
	for _, t := range tasks {
		s += fmt.Sprintf("  task %d: weight=%d locations=%v\n", t.Index, t.Weight, t.Locations)
	}
	return s
}
