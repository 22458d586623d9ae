package sched

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// stableHeaviestFirst is the order heaviestFirst must give: the task
// positions after a stable sort of the Task values by weight ↓.
func stableHeaviestFirst(weights []int64) []int32 {
	tasks := make([]Task, len(weights))
	for i, w := range weights {
		tasks[i] = Task{Index: i, Weight: w}
	}
	slices.SortStableFunc(tasks, func(a, b Task) int { return cmp.Compare(b.Weight, a.Weight) })
	out := make([]int32, len(tasks))
	for i, t := range tasks {
		out[i] = int32(t.Index)
	}
	return out
}

func checkHeaviestFirst(t *testing.T, name string, weights []int64) {
	t.Helper()
	tasks := make([]Task, len(weights))
	for i, w := range weights {
		tasks[i] = Task{Index: i, Weight: w}
	}
	rank, want := heaviestFirst(input(tasks)), stableHeaviestFirst(weights)
	if !slices.Equal(rank.order, want) {
		t.Errorf("%s: weights %v\n got %v\nwant %v", name, weights, rank.order, want)
	}
	for k, i := range rank.order {
		if w := rank.weight(k); w != weights[i] {
			t.Errorf("%s: weights %v: rank %d (position %d) weighs %d, want %d", name, weights, k, i, w, weights[i])
		}
		if k == 0 {
			continue
		}
		// Classes number the weights heaviest first: a rank shares its
		// predecessor's class exactly when it shares its weight.
		if c, prev, same := rank.class(k), rank.class(k-1), weights[i] == weights[rank.order[k-1]]; c < prev || (c == prev) != same {
			t.Errorf("%s: weights %v: ranks %d and %d are in classes %d and %d", name, weights, k-1, k, prev, c)
		}
	}
	if n := len(rank.order); n > 0 && rank.class(n-1) >= rank.classes() {
		t.Errorf("%s: weights %v: the last rank's class %d is not below the count %d", name, weights, rank.class(n-1), rank.classes())
	}
}

func TestHeaviestFirstMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dense := make([]int64, 500)
	for i := range dense {
		dense[i] = rng.Int63n(1 << 40)
	}
	sparse := make([]int64, 1020)
	for i := range sparse {
		if rng.Intn(16) == 0 {
			sparse[i] = 1 + rng.Int63n(5)*1000
		}
	}
	for _, c := range []struct {
		name    string
		weights []int64
	}{
		{"empty", nil},
		{"one zero", []int64{0}},
		{"all zeros", make([]int64, 9)},
		{"all equal", []int64{7, 7, 7, 7, 7}},
		{"all equal negative", []int64{-3, -3, -3}},
		{"one non-zero first", []int64{5, 0, 0, 0}},
		{"one non-zero last", []int64{0, 0, 0, 5}},
		{"one non-zero middle", []int64{0, 0, 9, 0, 0}},
		{"negatives among zeros", []int64{0, -1, 0, -5, 0, -1, 0}},
		{"every sign", []int64{-2, 0, 3, -2, 3, 0, 1, -7, 0, 3}},
		{"extremes", []int64{0, -1 << 63, 1<<63 - 1, 0, 1<<63 - 1, -1 << 63}},
		{"dense random", dense},
		{"sparse", sparse},
	} {
		checkHeaviestFirst(t, c.name, c.weights)
	}
}

// FuzzHeaviestFirst checks the order against the stable sort on weights
// read one signed byte each, so zeros, ties and negatives all come up.
func FuzzHeaviestFirst(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 3, 0, 0xff, 3, 0x80, 0x7f, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		weights := make([]int64, len(data))
		for i, b := range data {
			weights[i] = int64(int8(b))
		}
		checkHeaviestFirst(t, "fuzz", weights)
	})
}
