package chaos

import "datanet/internal/hashutil"

// rng is a splitmix64 stream: tiny, fast, and fully specified here so the
// fault plans a seed generates never change underneath a recorded
// counterexample (math/rand's stream is documented but its shuffling
// helpers are not frozen across Go releases).
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

// next returns the next 64 random bits.
func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return hashutil.Mix64(r.state)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// perm returns a random permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
