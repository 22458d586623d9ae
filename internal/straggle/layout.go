package straggle

import "math"

// Group is one coded group: K systematic units (consecutive tasks) plus
// Par parity units; any K of the K+Par completions reconstruct the
// group's filter output.
type Group struct {
	// SysStart is the first systematic unit index; the group covers
	// [SysStart, SysStart+K).
	SysStart int
	// K is the systematic width (the reconstruction threshold).
	K int
	// ParStart is the first parity unit index (parity units are numbered
	// after every systematic unit); the group owns [ParStart,
	// ParStart+Par).
	ParStart int
	// Par is the parity unit count (N = K + Par).
	Par int
}

// N is the group's total unit count.
func (g Group) N() int { return g.K + g.Par }

// Units lists the group's unit indices, systematic units first.
func (g Group) Units() []int {
	units := make([]int, 0, g.N())
	for u := g.SysStart; u < g.SysStart+g.K; u++ {
		units = append(units, u)
	}
	for u := g.ParStart; u < g.ParStart+g.Par; u++ {
		units = append(units, u)
	}
	return units
}

// Layout maps a phase's T tasks onto coded groups: consecutive runs of
// GroupSize tasks become one group each (the tail group is narrower),
// every group encoded at rate ≈ k/n. Unit indices 0..Sys-1 are the
// systematic tasks in their original order; Sys..Total-1 are parity
// units, grouped in group order.
type Layout struct {
	// Sys is the systematic unit count (the original task count).
	Sys int
	// Groups lists the coded groups in systematic order.
	Groups []Group

	group []int // unit index -> group index
}

// NewLayout builds the coded layout for sys tasks with the given group
// width and rate (both already defaulted/validated via Config).
func NewLayout(sys, groupSize int, rate float64) Layout {
	l := Layout{Sys: sys}
	parNext := sys
	for start := 0; start < sys; start += groupSize {
		k := groupSize
		if start+k > sys {
			k = sys - start
		}
		n := int(math.Ceil(float64(k) / rate))
		if n <= k {
			n = k + 1 // rate < 1 always buys at least one parity unit
		}
		l.Groups = append(l.Groups, Group{SysStart: start, K: k, ParStart: parNext, Par: n - k})
		parNext += n - k
	}
	l.group = make([]int, parNext)
	for gi, g := range l.Groups {
		for u := g.SysStart; u < g.SysStart+g.K; u++ {
			l.group[u] = gi
		}
		for u := g.ParStart; u < g.ParStart+g.Par; u++ {
			l.group[u] = gi
		}
	}
	return l
}

// Total is the unit count including parity.
func (l Layout) Total() int { return len(l.group) }

// ParityUnits is the total parity unit count.
func (l Layout) ParityUnits() int { return l.Total() - l.Sys }

// GroupOf returns the group index owning the unit.
func (l Layout) GroupOf(unit int) int { return l.group[unit] }

// IsParity reports whether the unit is a parity unit.
func (l Layout) IsParity(unit int) bool { return unit >= l.Sys }
