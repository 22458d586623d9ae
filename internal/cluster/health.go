package cluster

// Health is the one node-health table every layer acts on: per node a
// suspected bit (believed dead) and a draining bit independent of it (a
// member on its way out can also stop beating). Failure detectors and
// decommissioning write it; whatever decides where work or bytes may go
// reads it. It carries no timestamps: a belief holds as of the caller's
// instant. A nil table believes every node live; a non-nil one knows the
// ids [0, N), grows on a write to a later id, and suspects any id it does
// not know. The owner's lock guards it.
type Health struct {
	bits []uint8
}

// The per-node bits; the zero entry is a live, staying node.
const (
	suspectedBit uint8 = 1 << iota
	drainingBit
)

// NewHealth returns a table of n live, staying nodes.
func NewHealth(n int) *Health { return &Health{bits: make([]uint8, n)} }

// Suspected reports whether the table believes the node dead: a detector
// suspects it, or the table does not know it.
func (h *Health) Suspected(id NodeID) bool {
	return h != nil && (uint(id) >= uint(len(h.bits)) || h.bits[id]&suspectedBit != 0)
}

// Draining reports whether the node is on its way out.
func (h *Health) Draining(id NodeID) bool {
	return h != nil && uint(id) < uint(len(h.bits)) && h.bits[id]&drainingBit != 0
}

// Suspect records that the node is believed dead.
func (h *Health) Suspect(id NodeID) { h.set(id, suspectedBit, true) }

// Clear records that the node is believed live again (a beat arrived).
func (h *Health) Clear(id NodeID) { h.set(id, suspectedBit, false) }

// Drain marks the node as leaving.
func (h *Health) Drain(id NodeID) { h.set(id, drainingBit, true) }

// set writes one bit, growing the table to cover id; the ids it grows
// over are unknown, hence suspected.
func (h *Health) set(id NodeID, bit uint8, on bool) {
	for int(id) >= len(h.bits) {
		h.bits = append(h.bits, suspectedBit)
	}
	if on {
		h.bits[id] |= bit
	} else {
		h.bits[id] &^= bit
	}
}
