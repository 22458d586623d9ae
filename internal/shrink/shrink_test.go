package shrink

import (
	"slices"
	"testing"
)

// dropOrHalve drops one element, then halves one, in index order.
func dropOrHalve(xs []int64) [][]int64 {
	var out [][]int64
	for i := range xs {
		out = append(out, slices.Delete(slices.Clone(xs), i, i+1))
	}
	for i, x := range xs {
		if x >= 2 {
			c := slices.Clone(xs)
			c[i] = x / 2
			out = append(out, c)
		}
	}
	return out
}

// someAbove10 is a synthetic failure: some element exceeds 10.
func someAbove10(xs []int64) bool {
	return slices.ContainsFunc(xs, func(x int64) bool { return x > 10 })
}

// Greedy reaches a one-element input that is a fixed point of halving:
// half of it no longer fails, so it lands in (10, 21], one halving above
// the minimal failing value 11. The input is untouched.
func TestGreedyReachesFixedPoint(t *testing.T) {
	in := []int64{3, 400, 12, 0, 77}
	orig := slices.Clone(in)
	min := Greedy(in, dropOrHalve, someAbove10)
	if len(min) != 1 || min[0] <= 10 || min[0] > 21 {
		t.Fatalf("Greedy = %v, want one element in (10, 21]", min)
	}
	if !slices.Equal(in, orig) {
		t.Errorf("Greedy mutated its input: %v, was %v", in, orig)
	}
}

// A non-failing input comes back as it is, without one edit tried.
func TestGreedyPassThrough(t *testing.T) {
	in := []int64{1, 2, 3}
	got := Greedy(in, func([]int64) [][]int64 {
		t.Fatal("edits of a non-failing input")
		return nil
	}, someAbove10)
	if &got[0] != &in[0] || len(got) != len(in) {
		t.Errorf("Greedy of a non-failing input returned %v, want the input itself", got)
	}
}

// Greedy takes the first failing candidate in edit order, which is what
// keeps a campaign's shrunk plan stable: from [5 4 3] under "sum ≥ 7"
// both dropping 5 and dropping 4 still fail, and dropping 5 comes first.
func TestGreedyFirstCandidateWins(t *testing.T) {
	sumAtLeast7 := func(xs []int64) bool {
		var s int64
		for _, x := range xs {
			s += x
		}
		return s >= 7
	}
	drop := func(xs []int64) [][]int64 { return dropOrHalve(xs)[:len(xs)] }
	if got := Greedy([]int64{5, 4, 3}, drop, sumAtLeast7); !slices.Equal(got, []int64{4, 3}) {
		t.Errorf("Greedy = %v, want [4 3]", got)
	}
}
