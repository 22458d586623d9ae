package clusterd

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"datanet/internal/cluster"
	"datanet/internal/elasticmap"
	"datanet/internal/server"
)

// Typed routing errors. The HTTP layer renders them as 503s with a
// machine-readable kind and Retry-After; the chaos router counts them as
// the (legal) unavailability window of a failover in progress.
var (
	// ErrNotLeader reports a write or read routed to a node that does not
	// lead the array's shard — the client's topology is stale.
	ErrNotLeader = errors.New("clusterd: not the shard leader")
	// ErrNoLeader reports a shard with no live primary — mid-failover.
	ErrNoLeader = errors.New("clusterd: shard has no leader")
	// ErrNodeDown reports a request to a crashed node (the chaos analog
	// of a connection refused).
	ErrNodeDown = errors.New("clusterd: node is down")
)

// IsFailoverRefusal reports whether err is one of the typed routing
// refusals above: a permitted failover-window outcome, not a bug.
func IsFailoverRefusal(err error) bool {
	return errors.Is(err, ErrNotLeader) || errors.Is(err, ErrNoLeader) || errors.Is(err, ErrNodeDown)
}

// Role is a node's duty for one shard, stamped with the fence it was
// assigned under. A node refuses writes whose shard has re-fenced since.
type Role struct {
	Primary bool
	Fence   uint64
}

// Node is the data plane of one cluster member: a snapshot-isolated
// store holding every replica the node carries (primary and follower),
// plus the shard roles and staleness floors the control plane pushed.
// Reads are served node-locally (lock-free store loads after a brief
// role check); all mutations arrive via the Cluster, which holds its own
// lock first — the lock order is always Cluster.mu → Node.mu.
type Node struct {
	mu    sync.Mutex
	store *server.Store
	roles map[int]Role
	// expect is the per-array staleness floor: serving an epoch below it
	// means the client may have already seen newer data (acked by a
	// primary that died before shipping), so the response is flagged.
	expect map[string]uint64
	// next is the per-array epoch floor appends must clear — promotion
	// sets it to the acked high-water mark so the first post-failover
	// append jumps past every orphaned epoch.
	next map[string]uint64
	// down is ground truth (the chaos injector's crash state), never
	// consulted by the control plane's belief machinery.
	down bool
	// registered flips once the control plane has told the node its
	// roles (possibly "none"); /readyz gates on it.
	registered bool

	cacheSize int
}

func newNode(cacheSize int) *Node {
	return &Node{
		store:     server.NewStore(cacheSize),
		roles:     map[int]Role{},
		expect:    map[string]uint64{},
		next:      map[string]uint64{},
		cacheSize: cacheSize,
	}
}

// Store exposes the node's current snapshot store (a restart replaces it).
func (n *Node) Store() *server.Store {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.store
}

// Role reports the node's duty for a shard.
func (n *Node) Role(shard int) (Role, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.roles[shard]
	return r, ok
}

// Ready is the node's readiness check: registered with the control plane
// and not crashed.
func (n *Node) Ready() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return ErrNodeDown
	}
	if !n.registered {
		return errors.New("awaiting role assignment")
	}
	return nil
}

// LedShards lists the shards the node currently leads, ascending.
func (n *Node) LedShards() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []int
	for s, r := range n.roles {
		if r.Primary {
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// isDown reads the truth plane.
func (n *Node) isDown() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

func (n *Node) setDown(v bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = v
}

// reset wipes the node to a fresh process image: empty store, no roles.
// The metadata service is in-memory, so a crashed node that restarts
// comes back with nothing and resyncs from the current primaries.
func (n *Node) reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.store = server.NewStore(n.cacheSize)
	n.roles = map[int]Role{}
	n.expect = map[string]uint64{}
	n.next = map[string]uint64{}
	n.registered = false
}

// setRole installs one shard duty; expect/nextFloor carry the staleness
// floors of a promotion (nil for follower or initial assignments).
func (n *Node) setRole(shard int, r Role, floors map[string]uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.roles[shard] = r
	for name, e := range floors {
		if e > n.expect[name] {
			n.expect[name] = e
		}
		if e > n.next[name] {
			n.next[name] = e
		}
	}
	n.registered = true
}

// clearRole revokes one shard duty (deposition or follower removal).
func (n *Node) clearRole(shard int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.roles, shard)
}

// markRegistered flips readiness for nodes that legitimately hold no
// roles yet (a fresh addnode before any repair pulls it in).
func (n *Node) markRegistered() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.registered = true
}

// Lookup is the node-local read path: resolve the array's snapshot if —
// and only if — this node currently leads its shard. The stale flag
// reports an epoch below the promotion floor: the data is real but older
// than something a client may already have been acked.
func (n *Node) Lookup(name string, shards int) (sn *server.Snapshot, stale bool, err error) {
	shard := ShardOf(name, shards)
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return nil, false, ErrNodeDown
	}
	r, ok := n.roles[shard]
	if !ok || !r.Primary {
		n.mu.Unlock()
		return nil, false, fmt.Errorf("%w: shard %d", ErrNotLeader, shard)
	}
	floor := n.expect[name]
	store := n.store
	n.mu.Unlock()
	sn, ok = store.Get(name)
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", server.ErrUnknownArray, name)
	}
	return sn, sn.Epoch < floor, nil
}

// writeLocal installs the array next forms from name's current snapshot
// (nil when name is absent) at the next epoch above both that snapshot
// and the promotion floor, under a fence check: a deposed primary whose
// shard re-fenced refuses the write. Caller holds the cluster lock.
func (n *Node) writeLocal(shard int, fence uint64, name string, next func(prev *server.Snapshot) (*elasticmap.Array, error)) (*server.Snapshot, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil, ErrNodeDown
	}
	r, ok := n.roles[shard]
	if !ok || !r.Primary || r.Fence != fence {
		return nil, fmt.Errorf("%w: shard %d fenced", ErrNotLeader, shard)
	}
	prev, _ := n.store.Get(name)
	arr, err := next(prev)
	if err != nil {
		return nil, err
	}
	var epoch uint64
	if prev != nil {
		epoch = prev.Epoch
	}
	if f := n.next[name]; f > epoch {
		epoch = f
	}
	sn, err := n.store.PutEpoch(name, arr, epoch+1)
	if err != nil {
		return nil, err
	}
	// The write supersedes every orphaned epoch: clear the floors.
	delete(n.next, name)
	if sn.Epoch >= n.expect[name] {
		delete(n.expect, name)
	}
	return sn, nil
}

// applyReplica is the follower side of snapshot shipping: install the
// shipped epoch if it advances the local copy. It returns the epoch the
// follower now holds (its ack). A down node acks nothing.
func (n *Node) applyReplica(name string, arr *elasticmap.Array, epoch uint64) (acked uint64, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return 0, false
	}
	if prev, ok := n.store.Get(name); ok && prev.Epoch >= epoch {
		return prev.Epoch, true // duplicate or stale ship: already there
	}
	if _, err := n.store.PutEpoch(name, arr, epoch); err != nil {
		return 0, false
	}
	return epoch, true
}

// localEpochs snapshots the node's applied epoch per array — the
// freshness evidence promotion ranks candidates by.
func (n *Node) localEpochs() map[string]uint64 {
	n.mu.Lock()
	store := n.store
	n.mu.Unlock()
	out := map[string]uint64{}
	for _, sn := range store.List() {
		out[sn.Name] = sn.Epoch
	}
	return out
}

// ledList is the node's catalog listing: the snapshots of the shards it
// leads. Follower replicas live on the same store but are not served.
func (n *Node) ledList(shards int) []*server.Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []*server.Snapshot
	for _, sn := range n.store.List() {
		if n.roles[ShardOf(sn.Name, shards)].Primary {
			out = append(out, sn)
		}
	}
	return out
}

// nodeCatalog is node id's server.Catalog: reads pass the leadership gate
// (Cluster.ReadAt), the listing holds the shards the node leads, writes
// take the fenced cluster write path, the node is ready while it is a
// registered, live member, and spans carry the node and the array's
// shard. Each call resolves the node afresh, so a handler built at boot
// serves a restarted node's new store.
type nodeCatalog struct {
	c  *Cluster
	id cluster.NodeID
}

func (nc nodeCatalog) Lookup(name string) (*server.Snapshot, bool, error) {
	sn, stale, err := nc.c.ReadAt(nc.id, name)
	return sn, stale, nc.c.unavailable(err)
}

func (nc nodeCatalog) List() []*server.Snapshot {
	if n, ok := nc.c.Node(nc.id); ok {
		return n.ledList(nc.c.Shards())
	}
	return nil
}

func (nc nodeCatalog) Write(name string, next func(*server.Snapshot) (*elasticmap.Array, error)) (*server.Snapshot, error) {
	nc.c.mu.Lock()
	defer nc.c.mu.Unlock()
	sn, err := nc.c.writeAt(nc.id, name, next, true)
	return sn, nc.c.unavailable(err)
}

func (nc nodeCatalog) Ready() error {
	n, ok := nc.c.Node(nc.id)
	if !ok {
		return errors.New("not a cluster member")
	}
	return n.Ready()
}

func (nc nodeCatalog) Node() int { return int(nc.id) }

func (nc nodeCatalog) Shard(name string) int { return ShardOf(name, nc.c.Shards()) }
