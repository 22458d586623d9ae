package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"datanet/internal/cluster"
	"datanet/internal/hdfs"
)

// mkTasks builds a reproducible task set: nBlocks tasks with the given
// weights (cycled) and 3 random replica locations each.
func mkTasks(nBlocks, nNodes int, weights []int64, seed int64) []Task {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]Task, nBlocks)
	for i := range tasks {
		perm := rng.Perm(nNodes)
		locs := make([]cluster.NodeID, 3)
		for k := 0; k < 3; k++ {
			locs[k] = cluster.NodeID(perm[k])
		}
		w := int64(0)
		if len(weights) > 0 {
			w = weights[i%len(weights)]
		}
		tasks[i] = Task{
			Block:     hdfs.BlockID(i),
			Index:     i,
			Weight:    w,
			Bytes:     1 << 18,
			Locations: locs,
		}
	}
	return tasks
}

// drain pulls every task via round-robin requests, returning per-node
// served weights and the number of tasks served.
func drain(p Picker, nNodes int) (map[cluster.NodeID]int64, map[cluster.NodeID]int, int) {
	loads := make(map[cluster.NodeID]int64)
	counts := make(map[cluster.NodeID]int)
	served := 0
	for i := 0; ; i++ {
		node := cluster.NodeID(i % nNodes)
		t, _, ok := p.Next(node)
		if !ok {
			if p.Remaining() == 0 {
				break
			}
			continue
		}
		loads[node] += t.Weight
		counts[node]++
		served++
		if served > 10000 {
			panic("drain runaway")
		}
	}
	return loads, counts, served
}

// allFactories enumerates every picker constructor.
func allFactories() map[string]Factory {
	return map[string]Factory{
		"locality": NewLocalityPicker,
		"datanet":  NewDataNetPicker,
		"capacity": NewCapacityAwarePicker,
		"flow":     NewFlowPicker,
		"lpt":      NewLPTPicker,
		"random":   NewRandomPicker(99),
		"delay":    NewDelayedLocalityPicker(2),
		"fallback": NewFallbackLocality("x"),
	}
}

// Every picker must serve every task exactly once, under any request
// pattern.
func TestAllPickersServeEveryTaskOnce(t *testing.T) {
	topo := cluster.MustHomogeneous(6, 2)
	tasks := mkTasks(40, 6, []int64{0, 10, 500, 70, 0, 30}, 5)
	for name, f := range allFactories() {
		p := f(tasks, topo)
		if p.Remaining() != len(tasks) {
			t.Errorf("%s: Remaining = %d initially", name, p.Remaining())
		}
		_, _, served := drain(p, 6)
		if served != len(tasks) {
			t.Errorf("%s served %d of %d tasks", name, served, len(tasks))
		}
		if p.Remaining() != 0 {
			t.Errorf("%s: Remaining = %d after drain", name, p.Remaining())
		}
		if _, _, ok := p.Next(0); ok {
			t.Errorf("%s handed out a task after drain", name)
		}
	}
}

func TestAllPickersServeEveryTaskOnceQuick(t *testing.T) {
	topo := cluster.MustHomogeneous(4, 2)
	f := func(ws []uint16, seed int64) bool {
		weights := make([]int64, len(ws))
		for i, w := range ws {
			weights[i] = int64(w % 1000)
		}
		n := len(ws)
		if n == 0 {
			n = 1
		}
		tasks := mkTasks(n, 4, weights, seed)
		for _, fac := range allFactories() {
			p := fac(tasks, topo)
			seen := make(map[hdfs.BlockID]bool)
			for asks := 0; p.Remaining() > 0; asks++ {
				if asks > 10*len(tasks) {
					return false
				}
				task, _, ok := p.Next(cluster.NodeID(int(seed) & 3))
				if !ok {
					continue // declined: the delay picker's node asks again
				}
				if seen[task.Block] {
					return false
				}
				seen[task.Block] = true
				seed++
			}
			if _, _, ok := p.Next(0); ok || len(seen) != len(tasks) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLocalityPickerPrefersLocalFIFO(t *testing.T) {
	topo := cluster.MustHomogeneous(4, 2)
	tasks := []Task{
		{Block: 0, Index: 0, Locations: []cluster.NodeID{1}},
		{Block: 1, Index: 1, Locations: []cluster.NodeID{0}},
		{Block: 2, Index: 2, Locations: []cluster.NodeID{0}},
	}
	p := NewLocalityPicker(tasks, topo)
	if got, _, _ := p.Next(0); got.Block != 1 {
		t.Errorf("node 0 first pick = %d, want its first local block 1", got.Block)
	}
	if got, _, _ := p.Next(0); got.Block != 2 {
		t.Errorf("node 0 second pick = %d, want 2", got.Block)
	}
	// Node 0 has no locals left: falls back to remote FIFO (block 0).
	if got, _, _ := p.Next(0); got.Block != 0 {
		t.Errorf("node 0 remote pick = %d, want 0", got.Block)
	}
	if p.Name() != "hadoop-locality" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestDataNetPickerBalancesBetterThanLocality(t *testing.T) {
	topo := cluster.MustHomogeneous(8, 2)
	// Clustered weights: a few heavy blocks, many empty ones.
	weights := make([]int64, 80)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 16; i++ {
		weights[rng.Intn(80)] += int64(2000 + rng.Intn(4000))
	}
	tasks := mkTasks(80, 8, weights, 3)

	imbalance := func(f Factory) float64 {
		loads, _, _ := drain(f(tasks, topo), 8)
		var max, total int64
		for _, l := range loads {
			total += l
			if l > max {
				max = l
			}
		}
		if total == 0 {
			return 0
		}
		return float64(max) / (float64(total) / 8)
	}
	base := imbalance(NewLocalityPicker)
	dn := imbalance(NewDataNetPicker)
	if dn >= base {
		t.Errorf("DataNet imbalance %.2f not better than locality %.2f", dn, base)
	}
	if dn > 1.5 {
		t.Errorf("DataNet imbalance %.2f too high", dn)
	}
}

func TestDataNetPickerHonorsLocalityMostly(t *testing.T) {
	topo := cluster.MustHomogeneous(8, 2)
	weights := make([]int64, 64)
	rng := rand.New(rand.NewSource(4))
	for i := range weights {
		weights[i] = int64(rng.Intn(500))
	}
	tasks := mkTasks(64, 8, weights, 6)
	p := NewDataNetPicker(tasks, topo)
	local, remote := 0, 0
	for i := 0; ; i++ {
		node := cluster.NodeID(i % 8)
		task, _, ok := p.Next(node)
		if !ok {
			break
		}
		if isLocal(task, node) {
			local++
		} else {
			remote++
		}
	}
	if frac := float64(remote) / float64(local+remote); frac > 0.4 {
		t.Errorf("remote fraction %.2f too high — locality abandoned", frac)
	}
}

func TestCapacityAwareTargets(t *testing.T) {
	// One node 3× faster: it should end with ≈3× the workload.
	specs := []cluster.Node{
		{CPURate: 300e6}, {CPURate: 100e6}, {CPURate: 100e6}, {CPURate: 100e6},
	}
	topo, err := cluster.NewHeterogeneous(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]int64, 60)
	for i := range weights {
		weights[i] = 100
	}
	tasks := mkTasks(60, 4, weights, 8)
	// The capacity preference lives in the precomputed assignment (served
	// queues); execution-time stealing would re-equalize under an
	// artificial round-robin drain, so inspect the assignment directly.
	loads := plannedLoads(newDataNet(input(tasks), topo, true), tasks)
	fast := float64(loads[0])
	rest := float64(loads[1]+loads[2]+loads[3]) / 3
	if ratio := fast / rest; ratio < 1.8 || ratio > 4.5 {
		t.Errorf("fast-node load ratio = %.2f, want ≈3", ratio)
	}
	if name := NewCapacityAwarePicker(tasks, topo).Name(); name != "datanet-capacity" {
		t.Errorf("Name = %q", name)
	}
}

func TestLPTPickerServesHeaviestFirst(t *testing.T) {
	topo := cluster.MustHomogeneous(2, 1)
	tasks := []Task{
		{Block: 0, Index: 0, Weight: 10, Locations: []cluster.NodeID{0}},
		{Block: 1, Index: 1, Weight: 99, Locations: []cluster.NodeID{0}},
		{Block: 2, Index: 2, Weight: 50, Locations: []cluster.NodeID{0}},
	}
	p := NewLPTPicker(tasks, topo)
	if got, _, _ := p.Next(0); got.Weight != 99 {
		t.Errorf("first = %d, want 99", got.Weight)
	}
	if got, _, _ := p.Next(0); got.Weight != 50 {
		t.Errorf("second = %d, want 50", got.Weight)
	}
	// A node with no locals takes the heaviest remaining global.
	if got, _, _ := p.Next(1); got.Weight != 10 {
		t.Errorf("remote pick = %d, want 10", got.Weight)
	}
	if p.Name() != "lpt-greedy" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestFlowPickerName(t *testing.T) {
	topo := cluster.MustHomogeneous(4, 2)
	p := NewFlowPicker(mkTasks(12, 4, []int64{5}, 9), topo)
	if p.Name() != "maxflow-optimal" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestRandomPickerDeterministicPerSeed(t *testing.T) {
	topo := cluster.MustHomogeneous(4, 2)
	tasks := mkTasks(20, 4, []int64{1, 2, 3}, 10)
	seq := func() []hdfs.BlockID {
		p := NewRandomPicker(42)(tasks, topo)
		var out []hdfs.BlockID
		for i := 0; ; i++ {
			task, _, ok := p.Next(cluster.NodeID(i % 4))
			if !ok {
				break
			}
			out = append(out, task.Block)
		}
		return out
	}
	a, b := seq(), seq()
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverges at %d", i)
		}
	}
}

func TestStaticPickerStealing(t *testing.T) {
	topo := cluster.MustHomogeneous(2, 1)
	// All blocks local to node 0 only: node 1 must steal.
	tasks := []Task{
		{Block: 0, Index: 0, Weight: 100, Locations: []cluster.NodeID{0}},
		{Block: 1, Index: 1, Weight: 90, Locations: []cluster.NodeID{0}},
		{Block: 2, Index: 2, Weight: 80, Locations: []cluster.NodeID{0}},
	}
	p := NewFlowPicker(tasks, topo)
	got := 0
	for i := 0; i < 10 && p.Remaining() > 0; i++ {
		if _, _, ok := p.Next(1); ok {
			got++
		} else {
			break
		}
	}
	if got == 0 {
		t.Error("node 1 starved — stealing broken")
	}
}

func TestDataNetWorkloadsAccessor(t *testing.T) {
	topo := cluster.MustHomogeneous(4, 2)
	tasks := mkTasks(16, 4, []int64{100, 0, 50}, 11)
	p := newDataNet(input(tasks), topo, false)
	var want int64
	for _, task := range tasks {
		want += task.Weight
	}
	var got int64
	for _, w := range plannedLoads(p, tasks) {
		got += w
	}
	if got != want {
		t.Errorf("planned loads sum = %d, want %d", got, want)
	}
}
