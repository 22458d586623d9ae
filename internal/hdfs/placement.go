package hdfs

import "datanet/internal/placement"

// Replica placement lives in internal/placement since the unified-policy
// refactor; the historical hdfs names are aliases so existing callers
// (experiments, the public facade, tests) keep compiling against the
// same types. The filesystem write path goes through Policy.Choose.

// PlacementPolicy picks the replica nodes for a new block.
type PlacementPolicy = placement.Policy

// RandomPlacement picks replicas uniformly at random without replacement —
// the paper's characterization of HDFS writes ("randomly distribute them
// with several identical copies").
type RandomPlacement = placement.Random

// RackAwarePlacement mimics the HDFS default policy: the first replica on
// a random node, the second on a node in a different rack, the third in
// the same rack as the second (when racks permit). Extra replicas are
// random.
type RackAwarePlacement = placement.RackAware

// RoundRobinPlacement stripes replicas deterministically: block i gets
// nodes i, i+stride, i+2*stride … (mod N). Useful for tests that need a
// fully predictable layout and as a perfectly "even" ablation baseline.
type RoundRobinPlacement = placement.RoundRobin
