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
	got, want := heaviestFirst(tasks), stableHeaviestFirst(weights)
	if !slices.Equal(got, want) {
		t.Errorf("%s: weights %v\n got %v\nwant %v", name, weights, got, want)
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
