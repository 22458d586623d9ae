// Package shrink minimizes failing inputs. It is the one shrinker the
// chaos campaigns and the property tests report their counterexamples
// through; each caller supplies only the candidate edits of its input.
package shrink

// Greedy minimizes x while fails holds. It applies the first candidate of
// edits(x) that still fails and starts over from it, until no single edit
// preserves the failure. The result is a local minimum: every part left is
// needed to reproduce the failure. A non-failing x comes back unchanged.
//
// edits must build new values and leave its argument as it is, so x
// itself is never modified; fails must be deterministic. Inputs here are
// small and the expensive part is fails, so step size 1 is enough.
func Greedy[T any](x T, edits func(T) []T, fails func(T) bool) T {
	if !fails(x) {
		return x
	}
next:
	for {
		for _, c := range edits(x) {
			if fails(c) {
				x = c
				continue next
			}
		}
		return x
	}
}
