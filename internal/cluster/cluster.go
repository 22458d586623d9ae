// Package cluster models the compute cluster the paper evaluates on:
// PRObE's Marmot (128 nodes, dual 1.6 GHz Opterons, 16 GB RAM, GigE, one
// SATA disk each, all on one switch). DataNet itself only needs node
// identities, rack placement, and per-node processing rates; this package
// provides those plus convenience constructors for homogeneous and
// heterogeneous topologies.
package cluster

import (
	"errors"
	"fmt"
)

// NodeID identifies a cluster node (0-based, dense).
type NodeID int

// Node describes one machine's capabilities. Rates are bytes/second in
// simulated time; they calibrate the MapReduce engine's cost model rather
// than promise wall-clock fidelity.
type Node struct {
	Rack int
	// CPURate is the bytes/second a map function processes at unit
	// application cost (apps scale it by their CostPerByte).
	CPURate float64
	// DiskRate is the sequential scan throughput of the local disk.
	DiskRate float64
	// NetRate is the NIC throughput used for remote reads and shuffle.
	NetRate float64
	// Slots is the number of concurrent map tasks the node runs
	// (Marmot: 2 cores -> 2 slots).
	Slots int
}

// Topology is an immutable cluster description.
type Topology struct {
	nodes []Node
}

// Marmot-like defaults (per node): 2 map slots, ~80 MB/s disk, ~110 MB/s
// effective GigE, CPU normalized to 100 MB/s at unit cost.
const (
	DefaultCPURate  = 100e6
	DefaultDiskRate = 80e6
	DefaultNetRate  = 110e6
	DefaultSlots    = 2
)

// ErrBadTopology reports invalid construction parameters.
var ErrBadTopology = errors.New("cluster: need at least one node and one rack")

// NewHomogeneous builds n identical nodes spread round-robin over racks.
func NewHomogeneous(n, racks int) (*Topology, error) {
	if n <= 0 || racks <= 0 {
		return nil, ErrBadTopology
	}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{
			Rack:     i % racks,
			CPURate:  DefaultCPURate,
			DiskRate: DefaultDiskRate,
			NetRate:  DefaultNetRate,
			Slots:    DefaultSlots,
		}
	}
	return &Topology{nodes: nodes}, nil
}

// MustHomogeneous is NewHomogeneous for known-good literals in tests and
// examples; it panics on invalid input.
func MustHomogeneous(n, racks int) *Topology {
	t, err := NewHomogeneous(n, racks)
	if err != nil {
		panic(err)
	}
	return t
}

// NewHeterogeneous builds a topology from explicit node specs; node i is
// specs[i]. Used by heterogeneity ablations.
func NewHeterogeneous(specs []Node, racks int) (*Topology, error) {
	if len(specs) == 0 || racks <= 0 {
		return nil, ErrBadTopology
	}
	nodes := make([]Node, len(specs))
	copy(nodes, specs)
	for i := range nodes {
		if nodes[i].Rack < 0 || nodes[i].Rack >= racks {
			nodes[i].Rack = i % racks
		}
		if nodes[i].Slots <= 0 {
			nodes[i].Slots = DefaultSlots
		}
		if nodes[i].CPURate <= 0 {
			nodes[i].CPURate = DefaultCPURate
		}
		if nodes[i].DiskRate <= 0 {
			nodes[i].DiskRate = DefaultDiskRate
		}
		if nodes[i].NetRate <= 0 {
			nodes[i].NetRate = DefaultNetRate
		}
	}
	return &Topology{nodes: nodes}, nil
}

// N returns the node count.
func (t *Topology) N() int { return len(t.nodes) }

// Node returns node i; it panics on an out-of-range id, which is always a
// programming error in this codebase.
func (t *Topology) Node(id NodeID) Node {
	if int(id) < 0 || int(id) >= len(t.nodes) {
		panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", id, len(t.nodes)))
	}
	return t.nodes[id]
}

// IDs returns all node ids in order.
func (t *Topology) IDs() []NodeID {
	out := make([]NodeID, len(t.nodes))
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// TotalCapacity sums CPURate over nodes; the distribution-aware scheduler
// uses relative capacity when the cluster is heterogeneous.
func (t *Topology) TotalCapacity() float64 {
	var s float64
	for _, n := range t.nodes {
		s += n.CPURate
	}
	return s
}

// SameRack reports whether two nodes share a rack.
func (t *Topology) SameRack(a, b NodeID) bool {
	return t.Node(a).Rack == t.Node(b).Rack
}
