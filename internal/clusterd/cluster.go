package clusterd

import (
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"sort"
	"sync"

	"datanet/internal/cluster"
	"datanet/internal/detect"
	"datanet/internal/elasticmap"
	"datanet/internal/placement"
	"datanet/internal/server"
)

// DefaultShipDelay is the logical delay between a primary publishing an
// epoch and its shipment arriving at a follower: one tick, so the chaos
// harness always has a window in which a crash can orphan an acked epoch.
const DefaultShipDelay = 1.0

// ErrBadConfig reports an invalid cluster configuration.
var ErrBadConfig = errors.New("clusterd: invalid config")

// Config parameterizes the cluster control plane.
type Config struct {
	// Shards is the number of catalog partitions (ShardOf's modulus).
	Shards int
	// Replicas is K, the follower count per shard (when enough nodes
	// exist; fewer nodes replicate as widely as they can).
	Replicas int
	// Detect configures the heartbeat tracker. Oracle mode is promoted to
	// Heartbeat: a cluster cannot read the fault injector's mind.
	Detect detect.Config
	// ShipDelay is the time between publishing an epoch and its shipment
	// reaching a follower. Zero selects DefaultShipDelay.
	ShipDelay float64
	// CacheSize sizes each node store's per-epoch result caches.
	CacheSize int
	// Logger, when non-nil, receives structured control-plane events
	// (suspicions, failovers, membership changes). Nil — the default —
	// keeps the control plane silent, which the chaos goldens rely on.
	Logger *slog.Logger
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Detect.Mode == detect.Oracle {
		c.Detect.Mode = detect.Heartbeat
	}
	c.Detect = c.Detect.WithDefaults()
	if c.ShipDelay <= 0 {
		c.ShipDelay = DefaultShipDelay
	}
	return c
}

// Validate rejects unusable parameters.
func (c Config) Validate() error {
	if c.Shards <= 0 {
		return fmt.Errorf("%w: shards %d must be positive", ErrBadConfig, c.Shards)
	}
	if c.Replicas <= 0 {
		return fmt.Errorf("%w: replicas %d must be positive", ErrBadConfig, c.Replicas)
	}
	if c.ShipDelay <= 0 {
		return fmt.Errorf("%w: ship delay %v must be positive", ErrBadConfig, c.ShipDelay)
	}
	return c.Detect.Validate()
}

// member is the control plane's handle on one node. What it believes
// about the node — suspected by the tracker, draining after a
// decommission — lives in the cluster's health table, not here.
type member struct {
	node *Node
	addr string
}

// shardState is the control plane's book on one shard.
type shardState struct {
	// fence increments on every leadership change; shipments cut under an
	// older fence are dropped on delivery.
	fence uint64
	// primary is the serving node, -1 while leaderless (mid-failover with
	// no eligible successor).
	primary cluster.NodeID
	// followers lists the replica set, sorted. Suspected members stay
	// listed (their data may come back); leaving and wiped ones are
	// removed by repair.
	followers []cluster.NodeID
	// published maps array → the epoch of the current lineage followers
	// must reach. It rolls back to the winner's state at promotion.
	published map[string]uint64
	// acked maps array → the highest epoch ever acknowledged to a client.
	// Monotonic: it never rolls back, which is exactly why a promoted
	// follower can know which of its epochs are stale.
	acked map[string]uint64
	// acks maps follower → array → the epoch it has applied.
	acks map[cluster.NodeID]map[string]uint64
}

// shipKey dedups in-flight shipments: at most one per (shard, follower,
// array) so append storms cannot grow the queue without bound.
type shipKey struct {
	shard int
	to    cluster.NodeID
	name  string
}

// shipment is one snapshot in flight from a primary to a follower.
type shipment struct {
	due   float64
	shard int
	fence uint64
	to    cluster.NodeID
	name  string
	arr   *elasticmap.Array
	epoch uint64
}

// Cluster is the sharded, replicated metadata service's control plane:
// membership, shard assignment, snapshot shipping, failure detection and
// failover. All state mutates under one mutex and time advances only
// through Tick, so the chaos harness (logical clock) and the serving
// daemon (wall clock) exercise identical code.
type Cluster struct {
	mu      sync.Mutex
	cfg     Config
	members map[cluster.NodeID]*member
	shards  []*shardState
	tracker *detect.Tracker
	// health is the tracker's table: it writes suspicion, Decommission
	// writes draining, and every placement and promotion decision reads it.
	health  *cluster.Health
	ships   []shipment
	pending map[shipKey]bool
	now     float64
	nextID  cluster.NodeID
	gen     uint64
	log     *slog.Logger

	// metricsSources maps node → its serving layer's metric dump hook;
	// the /admin/metrics rollup merges them in ascending node order.
	metricsSources map[cluster.NodeID]func() server.MetricsDump

	promotions     int
	handoffs       int
	droppedShips   int
	shipsDelivered int
}

// New builds a cluster of n fresh nodes and assigns every shard a primary
// and min(Replicas, n-1) followers by rendezvous rank.
func New(cfg Config, n int) (*Cluster, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("%w: need at least one node, got %d", ErrBadConfig, n)
	}
	tracker, err := detect.NewTracker(cfg.Detect)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:            cfg,
		members:        make(map[cluster.NodeID]*member, n),
		shards:         make([]*shardState, cfg.Shards),
		tracker:        tracker,
		health:         tracker.Health(),
		pending:        map[shipKey]bool{},
		gen:            1,
		log:            cfg.Logger,
		metricsSources: map[cluster.NodeID]func() server.MetricsDump{},
	}
	ids := make([]cluster.NodeID, n)
	for i := 0; i < n; i++ {
		id := cluster.NodeID(i)
		ids[i] = id
		nd := newNode(cfg.CacheSize)
		nd.markRegistered()
		c.members[id] = &member{node: nd}
		c.tracker.Watch(int(id), 0)
	}
	c.nextID = cluster.NodeID(n)
	for si := range c.shards {
		s := &shardState{
			fence:     1,
			primary:   -1,
			published: map[string]uint64{},
			acked:     map[string]uint64{},
			acks:      map[cluster.NodeID]map[string]uint64{},
		}
		rank := placement.RendezvousRank(si, ids)
		s.primary = rank[0]
		c.members[rank[0]].node.setRole(si, Role{Primary: true, Fence: 1}, nil)
		k := c.cfg.Replicas
		if k > len(rank)-1 {
			k = len(rank) - 1
		}
		for _, f := range rank[1 : 1+k] {
			c.members[f].node.setRole(si, Role{Fence: 1}, nil)
			s.followers = append(s.followers, f)
			s.acks[f] = map[string]uint64{}
		}
		slices.Sort(s.followers)
		c.shards[si] = s
	}
	return c, nil
}

// Shards returns the shard count (ShardOf's modulus for this cluster).
func (c *Cluster) Shards() int { return c.cfg.Shards }

// Logger returns the configured event logger, nil when logging is off.
func (c *Cluster) Logger() *slog.Logger { return c.log }

// logEvent emits one structured control-plane event when logging is on.
// Callers hold c.mu; the handler writes outside any cluster state.
func (c *Cluster) logEvent(msg string, args ...any) {
	if c.log != nil {
		c.log.Info(msg, args...)
	}
}

// RegisterMetricsSource hooks a node's metric dump into the cluster-wide
// rollup. The serving layer registers each node's server.DumpMetrics.
func (c *Cluster) RegisterMetricsSource(id cluster.NodeID, fn func() server.MetricsDump) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metricsSources[id] = fn
}

// MetricsDumps snapshots every registered node's metrics, ascending by
// node ID — the fixed merge order the rollup-equality test relies on.
// The dumps are taken outside the cluster lock (the serving layer has
// its own synchronization), so a scrape cannot stall the control plane.
func (c *Cluster) MetricsDumps() []server.MetricsDump {
	c.mu.Lock()
	ids := make([]cluster.NodeID, 0, len(c.metricsSources))
	for id := range c.metricsSources {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	fns := make([]func() server.MetricsDump, 0, len(ids))
	for _, id := range ids {
		fns = append(fns, c.metricsSources[id])
	}
	c.mu.Unlock()
	out := make([]server.MetricsDump, 0, len(fns))
	for _, fn := range fns {
		out = append(out, fn())
	}
	return out
}

// unavailable maps the typed routing errors to the 503 shapes clients
// retry on, hinting one heartbeat interval (the granularity at which
// routing state changes); any other error passes through.
func (c *Cluster) unavailable(err error) error {
	hint := c.cfg.Detect.Interval
	switch {
	case errors.Is(err, ErrNotLeader):
		return server.Unavailable("not_leader", hint, "%v", err)
	case errors.Is(err, ErrNoLeader):
		return server.Unavailable("no_leader", hint, "%v", err)
	case errors.Is(err, ErrNodeDown):
		return server.Unavailable("node_down", hint, "%v", err)
	}
	return err
}

// Node returns a member's data-plane handle (HTTP wiring, chaos census).
func (c *Cluster) Node(id cluster.NodeID) (*Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	if !ok {
		return nil, false
	}
	return m.node, true
}

// MemberIDs lists current members, ascending.
func (c *Cluster) MemberIDs() []cluster.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memberIDs()
}

func (c *Cluster) memberIDs() []cluster.NodeID {
	out := make([]cluster.NodeID, 0, len(c.members))
	for id := range c.members {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// SetAddr records a member's serving address for the topology view.
func (c *Cluster) SetAddr(id cluster.NodeID, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.members[id]; ok {
		m.addr = addr
	}
}

// Load seeds an array: install it on the shard's primary and replicate
// synchronously to every reachable follower. This is the bootstrap path
// (datasets loaded before serving starts); steady-state writes go through
// Append and asynchronous shipping.
func (c *Cluster) Load(name string, arr *elasticmap.Array) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	si := ShardOf(name, c.cfg.Shards)
	s := c.shards[si]
	if s.primary < 0 {
		return fmt.Errorf("%w: shard %d", ErrNoLeader, si)
	}
	sn, err := c.writeAt(s.primary, name, server.Replace(arr), false)
	if err != nil {
		return err
	}
	for _, f := range s.followers {
		fm, ok := c.members[f]
		if !ok || c.health.Suspected(f) {
			continue
		}
		if acked, ok := fm.node.applyReplica(name, sn.Arr, sn.Epoch); ok {
			c.recordAck(s, f, name, acked)
		}
	}
	return nil
}

// Append routes a write through the shard map to the current primary.
func (c *Cluster) Append(name string, more *elasticmap.Array) (*server.Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shards[ShardOf(name, c.cfg.Shards)]
	if s.primary < 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoLeader, name)
	}
	return c.writeAt(s.primary, name, server.AppendTo(more), true)
}

// writeAt is the one write path: node id, which must lead name's shard,
// installs the array next forms (Node.writeLocal). The new epoch is the
// write's ack point: booked as published (followers must reach it) and
// acked (a client has seen it), then, when ship is set, fanned out
// asynchronously. A write that raced a re-fence is not booked — its
// node-side effect is superseded by the new lineage's floors. Caller holds
// the cluster lock.
func (c *Cluster) writeAt(id cluster.NodeID, name string, next func(*server.Snapshot) (*elasticmap.Array, error), ship bool) (*server.Snapshot, error) {
	m, ok := c.members[id]
	if !ok {
		return nil, fmt.Errorf("%w: node %d not a member", ErrNodeDown, id)
	}
	si := ShardOf(name, c.cfg.Shards)
	r, ok := m.node.Role(si)
	if !ok || !r.Primary {
		return nil, fmt.Errorf("%w: shard %d at node %d", ErrNotLeader, si, id)
	}
	sn, err := m.node.writeLocal(si, r.Fence, name, next)
	if err != nil {
		return nil, err
	}
	s := c.shards[si]
	if s.primary != id || r.Fence != s.fence {
		return sn, nil
	}
	s.published[name] = sn.Epoch
	if sn.Epoch > s.acked[name] {
		s.acked[name] = sn.Epoch
	}
	if ship {
		for _, f := range s.followers {
			if _, ok := c.members[f]; ok && !c.health.Suspected(f) {
				c.enqueueShip(si, f, name, sn)
			}
		}
	}
	return sn, nil
}

// Read routes a query through the shard map to the current primary.
// stale reports an epoch below the shard's acked high-water mark.
func (c *Cluster) Read(name string) (sn *server.Snapshot, stale bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shards[ShardOf(name, c.cfg.Shards)]
	if s.primary < 0 {
		return nil, false, fmt.Errorf("%w: %q", ErrNoLeader, name)
	}
	return c.readAt(s.primary, name)
}

// ReadAt queries a specific node; non-leaders refuse.
func (c *Cluster) ReadAt(id cluster.NodeID, name string) (sn *server.Snapshot, stale bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readAt(id, name)
}

func (c *Cluster) readAt(id cluster.NodeID, name string) (*server.Snapshot, bool, error) {
	m, ok := c.members[id]
	if !ok {
		return nil, false, fmt.Errorf("%w: node %d not a member", ErrNodeDown, id)
	}
	sn, stale, err := m.node.Lookup(name, c.cfg.Shards)
	if err != nil {
		return nil, false, err
	}
	// Serving an epoch is acking it: a later read below this epoch must
	// carry the stale flag.
	s := c.shards[ShardOf(name, c.cfg.Shards)]
	if sn.Epoch > s.acked[name] {
		s.acked[name] = sn.Epoch
	}
	return sn, stale, nil
}

// enqueueShip queues sn for follower f of shard si, capped at one
// in-flight shipment per (follower, array); repair re-ships any gap left
// by the cap once the in-flight one lands.
func (c *Cluster) enqueueShip(si int, f cluster.NodeID, name string, sn *server.Snapshot) {
	key := shipKey{shard: si, to: f, name: name}
	if c.pending[key] {
		return
	}
	c.pending[key] = true
	c.ships = append(c.ships, shipment{
		due: c.now + c.cfg.ShipDelay, shard: si, fence: c.shards[si].fence,
		to: f, name: name, arr: sn.Arr, epoch: sn.Epoch,
	})
}

// deliverShips lands every shipment due by now, in FIFO order. A shipment
// cut under an older fence is dropped: the deposed primary's unshipped
// epochs must never overwrite the new lineage.
func (c *Cluster) deliverShips(now float64) {
	keep := c.ships[:0]
	for _, sh := range c.ships {
		if sh.due > now {
			keep = append(keep, sh)
			continue
		}
		delete(c.pending, shipKey{shard: sh.shard, to: sh.to, name: sh.name})
		s := c.shards[sh.shard]
		if s.fence != sh.fence || !slices.Contains(s.followers, sh.to) {
			c.droppedShips++
			continue
		}
		fm, ok := c.members[sh.to]
		if !ok {
			c.droppedShips++
			continue
		}
		acked, ok := fm.node.applyReplica(sh.name, sh.arr, sh.epoch)
		if !ok {
			continue // down: no ack; repair retries after recovery
		}
		c.shipsDelivered++
		c.recordAck(s, sh.to, sh.name, acked)
	}
	c.ships = keep
}

func (c *Cluster) recordAck(s *shardState, f cluster.NodeID, name string, epoch uint64) {
	am := s.acks[f]
	if am == nil {
		am = map[string]uint64{}
		s.acks[f] = am
	}
	if epoch > am[name] {
		am[name] = epoch
	}
}

// Tick advances the control plane to now: land due shipments, collect
// heartbeats from live nodes, mature suspicion timeouts, fail over shards
// whose primary is newly suspected, and repair toward the desired
// topology. The chaos harness calls it with a logical clock; the daemon
// calls it from a wall-clock ticker.
func (c *Cluster) Tick(now float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now < c.now {
		now = c.now
	}
	c.now = now
	c.deliverShips(now)
	for _, id := range c.memberIDs() {
		if c.members[id].node.isDown() {
			continue // a dead node's beats do not arrive
		}
		c.tracker.Beat(int(id), now) // clears a false alarm in the health table
	}
	for _, id := range c.tracker.Sweep(now) {
		c.onSuspect(cluster.NodeID(id))
	}
	c.repair()
}

// onSuspect reacts to a matured suspicion (the tracker has marked the
// member in the health table): fail over every shard it leads. Its
// follower slots stay listed — if the suspicion proves false the data is
// still there — but shipping and promotion skip suspected members until a
// beat clears them.
func (c *Cluster) onSuspect(id cluster.NodeID) {
	if _, ok := c.members[id]; !ok {
		return
	}
	c.logEvent("node suspected", "node", int(id), "now", c.now)
	for si, s := range c.shards {
		if s.primary == id {
			c.failover(si)
		}
	}
}

// failover deposes shard si's primary: bump the fence (stranding its
// unshipped epochs), elect the freshest eligible follower, and hand the
// winner the acked high-water marks so it can flag stale reads. With no
// eligible successor the shard goes leaderless until repair finds one.
func (c *Cluster) failover(si int) {
	s := c.shards[si]
	old := s.primary
	winner, ok := c.electFrom(si, s.followers)
	if !ok {
		s.fence++
		c.gen++
		s.primary = -1
		c.depose(old, si)
		c.logEvent("shard leaderless", "shard", si, "fence", s.fence, "deposed", int(old))
		return
	}
	c.promotions++
	c.promote(si, winner, old, false)
}

// electFrom picks the freshest eligible candidate: reachable (the master
// queries each candidate's applied epochs — a synchronous call a down node
// fails), not suspected, preferring non-leaving nodes, ranked by summed
// applied epochs over the shard's arrays, ties by rendezvous order.
func (c *Cluster) electFrom(si int, candidates []cluster.NodeID) (cluster.NodeID, bool) {
	type cand struct {
		id      cluster.NodeID
		leaving bool
		sum     uint64
	}
	var cands []cand
	for _, id := range candidates {
		m, ok := c.members[id]
		if !ok || c.health.Suspected(id) || m.node.isDown() {
			continue
		}
		var sum uint64
		for name, e := range m.node.localEpochs() {
			if ShardOf(name, c.cfg.Shards) == si {
				sum += e
			}
		}
		cands = append(cands, cand{id: id, leaving: c.health.Draining(id), sum: sum})
	}
	if len(cands) == 0 {
		return -1, false
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].leaving != cands[j].leaving {
			return !cands[i].leaving // non-leaving first
		}
		if cands[i].sum != cands[j].sum {
			return cands[i].sum > cands[j].sum
		}
		ri, rj := placement.RendezvousScore(si, cands[i].id), placement.RendezvousScore(si, cands[j].id)
		if ri != rj {
			return ri > rj
		}
		return cands[i].id < cands[j].id
	})
	return cands[0].id, true
}

// promote installs winner as shard si's primary behind a new fence.
// published rolls back to what the winner actually holds (asynchronous
// shipping may have lost the tail), while acked — the client-visible
// high-water mark — travels to the winner as its staleness floor.
// graceful keeps the deposed primary enlisted as a caught-up follower.
func (c *Cluster) promote(si int, winner, old cluster.NodeID, graceful bool) {
	s := c.shards[si]
	s.fence++
	c.gen++
	wm := c.members[winner]
	pub := map[string]uint64{}
	for name, e := range wm.node.localEpochs() {
		if ShardOf(name, c.cfg.Shards) == si {
			pub[name] = e
		}
	}
	s.published = pub
	s.followers = removeID(s.followers, winner)
	delete(s.acks, winner)
	floors := make(map[string]uint64, len(s.acked))
	for name, e := range s.acked {
		floors[name] = e
	}
	wm.node.setRole(si, Role{Primary: true, Fence: s.fence}, floors)
	s.primary = winner
	c.logEvent("shard primary promoted",
		"shard", si, "winner", int(winner), "deposed", int(old),
		"fence", s.fence, "graceful", graceful)
	if old < 0 {
		return
	}
	om, ok := c.members[old]
	if !ok {
		return
	}
	if graceful {
		// The old primary holds everything published; keep it as a
		// follower so the handoff never reduces the replica count.
		om.node.clearRole(si)
		om.node.setRole(si, Role{Fence: s.fence}, nil)
		s.followers = append(s.followers, old)
		slices.Sort(s.followers)
		oacks := map[string]uint64{}
		for name, e := range om.node.localEpochs() {
			if ShardOf(name, c.cfg.Shards) == si {
				oacks[name] = e
			}
		}
		s.acks[old] = oacks
		return
	}
	c.depose(old, si)
}

// depose delivers the you-are-not-primary message. A down node cannot
// receive it — honest delivery — but a wiped restart discards the stale
// role anyway, and a falsely-suspected live node must drop it now so at
// most one node per shard believes itself primary among the reachable.
func (c *Cluster) depose(old cluster.NodeID, si int) {
	if om, ok := c.members[old]; ok && !om.node.isDown() {
		om.node.clearRole(si)
	}
}

// Crash marks a node dead in the truth plane. The control plane is not
// told: it learns from missed heartbeats, pays the detection latency, and
// only then fails over — exactly the gap the chaos invariants probe.
func (c *Cluster) Crash(id cluster.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	if !ok {
		return fmt.Errorf("clusterd: crash of unknown node %d", id)
	}
	m.node.setDown(true)
	return nil
}

// Rejoin restarts a crashed node as an empty process: its store is wiped
// (the service is in-memory) and it re-registers with the control plane,
// which strips every role the old incarnation held — a restarted node
// must never resume a leadership it no longer backs with data.
func (c *Cluster) Rejoin(id cluster.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	if !ok {
		return fmt.Errorf("clusterd: rejoin of unknown node %d", id)
	}
	for _, s := range c.shards {
		if slices.Contains(s.followers, id) {
			s.followers = removeID(s.followers, id)
			delete(s.acks, id)
			c.gen++
		}
	}
	for si, s := range c.shards {
		if s.primary == id {
			c.failover(si)
		}
	}
	m.node.reset()
	m.node.setDown(false)
	m.node.markRegistered()
	c.tracker.Forget(int(id))
	c.tracker.Watch(int(id), c.now)
	c.gen++
	c.logEvent("node rejoined", "node", int(id), "gen", c.gen)
	c.repair()
	return nil
}

// AddNode grows the cluster by one empty member; repair pulls it into the
// shards whose rendezvous ranking it enters.
func (c *Cluster) AddNode() cluster.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	nd := newNode(c.cfg.CacheSize)
	nd.markRegistered()
	c.members[id] = &member{node: nd}
	c.tracker.Watch(int(id), c.now)
	c.gen++
	c.logEvent("node added", "node", int(id), "gen", c.gen)
	c.repair()
	return id
}

// Decommission marks a node for graceful removal: it keeps serving until
// repair has handed off every primary role to a caught-up follower and
// replaced its follower slots, then it is dropped from membership.
func (c *Cluster) Decommission(id cluster.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.members[id]; !ok {
		return fmt.Errorf("clusterd: decommission of unknown node %d", id)
	}
	if c.health.Draining(id) {
		return nil
	}
	staying := 0
	for mid := range c.members {
		if !c.health.Draining(mid) {
			staying++
		}
	}
	if staying < 2 {
		return fmt.Errorf("clusterd: cannot decommission node %d: no node left to hand off to", id)
	}
	c.health.Drain(id)
	c.gen++
	c.logEvent("node decommissioning", "node", int(id), "gen", c.gen)
	c.repair()
	return nil
}

// eligible lists members fit for new replica duty on any shard: present,
// believed live, and not on their way out. Sorted for determinism.
func (c *Cluster) eligible() []cluster.NodeID {
	var out []cluster.NodeID
	for id := range c.members {
		if !c.health.Suspected(id) && !c.health.Draining(id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// wantFollowers is shard s's replica target: Replicas, capped by the
// eligible members other than its primary.
func (c *Cluster) wantFollowers(s *shardState, eligible []cluster.NodeID) int {
	avail := len(eligible)
	if slices.Contains(eligible, s.primary) {
		avail--
	}
	return min(c.cfg.Replicas, avail)
}

// caughtUp reports whether follower f has acked every published epoch of
// shard s.
func (c *Cluster) caughtUp(s *shardState, f cluster.NodeID) bool {
	am := s.acks[f]
	for name, e := range s.published {
		if am[name] < e {
			return false
		}
	}
	return true
}

// repair drives the cluster toward its desired shape; it is idempotent
// and runs every tick. Leaderless shards elect; leaving primaries hand
// off to caught-up followers; follower slots refill by rendezvous rank;
// leaving followers retire once their replacements caught up; ack gaps
// re-ship; fully-relieved leaving members are dropped.
func (c *Cluster) repair() {
	eligible := c.eligible()
	for si, s := range c.shards {
		if s.primary < 0 {
			if winner, ok := c.electFrom(si, s.followers); ok {
				c.promotions++
				c.promote(si, winner, -1, false)
			} else {
				continue // nothing to lead with; wait for recovery
			}
		}
		if c.health.Draining(s.primary) {
			if w, ok := c.handoffTarget(si); ok {
				c.handoffs++
				c.promote(si, w, s.primary, true)
			}
		}
		c.fillFollowers(si, eligible)
		c.retireLeavingFollowers(si, eligible)
		if !c.health.Suspected(s.primary) && !c.members[s.primary].node.isDown() {
			c.reship(si)
		}
	}
	// A leaving member relieved of every duty leaves for real.
	for _, id := range c.memberIDs() {
		if c.health.Draining(id) && !c.holdsAnyRole(id) {
			delete(c.members, id)
			c.tracker.Forget(int(id))
			c.gen++
		}
	}
}

// handoffTarget picks the follower a leaving primary hands shard si to:
// fully caught up (the graceful path never loses epochs), believed live,
// staying. First match in rendezvous order keeps the choice deterministic.
func (c *Cluster) handoffTarget(si int) (cluster.NodeID, bool) {
	s := c.shards[si]
	for _, f := range placement.RendezvousRank(si, s.followers) {
		m, ok := c.members[f]
		if !ok || c.health.Suspected(f) || c.health.Draining(f) || m.node.isDown() {
			continue
		}
		if c.caughtUp(s, f) {
			return f, true
		}
	}
	return -1, false
}

// fillFollowers tops shard si's staying, believed-live follower count up
// to min(Replicas, eligible peers), enlisting nodes in rendezvous order
// past the primary and the current followers. Enlistment is a delivered
// message: down candidates are skipped, even before their suspicion
// matures.
func (c *Cluster) fillFollowers(si int, eligible []cluster.NodeID) {
	s := c.shards[si]
	desired := c.wantFollowers(s, eligible)
	have := 0
	for _, f := range s.followers {
		if _, ok := c.members[f]; ok && !c.health.Suspected(f) && !c.health.Draining(f) {
			have++
		}
	}
	if have >= desired {
		return
	}
	for _, id := range placement.RendezvousRank(si, eligible) {
		if have == desired {
			return
		}
		m, ok := c.members[id]
		if !ok || m.node.isDown() || id == s.primary || slices.Contains(s.followers, id) {
			continue
		}
		m.node.setRole(si, Role{Fence: s.fence}, nil)
		s.followers = append(s.followers, id)
		slices.Sort(s.followers)
		if s.acks[id] == nil {
			s.acks[id] = map[string]uint64{}
		}
		c.gen++
		have++
	}
}

// retireLeavingFollowers drops leaving followers of shard si once the
// staying followers alone satisfy the replica count fully caught up —
// removing them earlier could strand the only copy of a recent epoch.
func (c *Cluster) retireLeavingFollowers(si int, eligible []cluster.NodeID) {
	s := c.shards[si]
	var staying, leaving []cluster.NodeID
	for _, f := range s.followers {
		if _, ok := c.members[f]; !ok {
			continue
		}
		if c.health.Draining(f) {
			leaving = append(leaving, f)
		} else if !c.health.Suspected(f) {
			staying = append(staying, f)
		}
	}
	if len(leaving) == 0 || len(staying) < c.wantFollowers(s, eligible) {
		return
	}
	for _, f := range staying {
		if !c.caughtUp(s, f) {
			return
		}
	}
	for _, f := range leaving {
		c.depose(f, si)
		s.followers = removeID(s.followers, f)
		delete(s.acks, f)
		c.gen++
	}
}

// reship closes ack gaps: any follower behind the published epoch of any
// array gets the primary's current snapshot, one in-flight shipment per
// (follower, array). This is both the retry path for deliveries that
// failed against a down node and the catch-up path for fresh followers.
func (c *Cluster) reship(si int) {
	s := c.shards[si]
	pm := c.members[s.primary]
	for _, f := range s.followers {
		if _, ok := c.members[f]; !ok || c.health.Suspected(f) {
			continue
		}
		for _, name := range slices.Sorted(maps.Keys(s.published)) {
			if s.acks[f][name] >= s.published[name] {
				continue
			}
			if sn, ok := pm.node.Store().Get(name); ok {
				c.enqueueShip(si, f, name, sn)
			}
		}
	}
}

// holdsAnyRole reports whether the control plane still counts id as a
// primary or follower anywhere.
func (c *Cluster) holdsAnyRole(id cluster.NodeID) bool {
	for _, s := range c.shards {
		if s.primary == id || slices.Contains(s.followers, id) {
			return true
		}
	}
	return false
}

// Converged verifies the cluster is quiescent and fully repaired: every
// shard has a live primary and a full complement of caught-up staying
// followers, no shipments are in flight, and no member is half-departed.
// The chaos harness asserts nil within a bounded number of post-fault
// ticks; a non-nil error names the first violation.
func (c *Cluster) Converged() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.memberIDs() {
		if c.health.Draining(id) {
			return fmt.Errorf("member %d still leaving", id)
		}
	}
	if len(c.ships) > 0 {
		return fmt.Errorf("%d shipments in flight", len(c.ships))
	}
	eligible := c.eligible()
	for si, s := range c.shards {
		if s.primary < 0 {
			return fmt.Errorf("shard %d leaderless", si)
		}
		pm, ok := c.members[s.primary]
		if !ok || c.health.Suspected(s.primary) || pm.node.isDown() {
			return fmt.Errorf("shard %d primary %d not live", si, s.primary)
		}
		desired := c.wantFollowers(s, eligible)
		live := 0
		for _, f := range s.followers {
			if _, ok := c.members[f]; !ok || c.health.Suspected(f) {
				continue
			}
			live++
			if !c.caughtUp(s, f) {
				return fmt.Errorf("shard %d follower %d behind published", si, f)
			}
		}
		if live < desired {
			return fmt.Errorf("shard %d has %d live followers, wants %d", si, live, desired)
		}
	}
	return nil
}

// PrimaryCensus polls every reachable node's own belief about which
// shards it leads — the node-local truth the exactly-one-primary
// invariant checks, as opposed to the control plane's book.
func (c *Cluster) PrimaryCensus() map[int][]cluster.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[int][]cluster.NodeID{}
	for _, id := range c.memberIDs() {
		m := c.members[id]
		if m.node.isDown() {
			continue
		}
		for _, si := range m.node.LedShards() {
			out[si] = append(out[si], id)
		}
	}
	return out
}

// Stats reports the control plane's lifetime counters.
type Stats struct {
	Promotions     int `json:"promotions"`
	Handoffs       int `json:"handoffs"`
	DroppedShips   int `json:"droppedShips"`
	ShipsDelivered int `json:"shipsDelivered"`
	Suspicions     int `json:"suspicions"`
}

// Stats snapshots the counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Promotions:     c.promotions,
		Handoffs:       c.handoffs,
		DroppedShips:   c.droppedShips,
		ShipsDelivered: c.shipsDelivered,
		Suspicions:     c.tracker.Suspicions,
	}
}

// ShardView is one shard's row in the topology.
type ShardView struct {
	Shard     int    `json:"shard"`
	Fence     uint64 `json:"fence"`
	Primary   int    `json:"primary"` // -1 while leaderless
	Followers []int  `json:"followers"`
}

// NodeView is one member's row in the topology.
type NodeView struct {
	ID        int    `json:"id"`
	Addr      string `json:"addr,omitempty"`
	Leaving   bool   `json:"leaving,omitempty"`
	Suspected bool   `json:"suspected,omitempty"`
}

// TopologyView is the admin plane's cluster description; loadgen derives
// its routing table from it (ShardOf + Map[shard].Primary).
type TopologyView struct {
	Gen      uint64      `json:"gen"`
	Shards   int         `json:"shards"`
	Replicas int         `json:"replicas"`
	Map      []ShardView `json:"map"`
	Nodes    []NodeView  `json:"nodes"`
}

// Topology snapshots the control plane's current view.
func (c *Cluster) Topology() TopologyView {
	c.mu.Lock()
	defer c.mu.Unlock()
	tv := TopologyView{Gen: c.gen, Shards: c.cfg.Shards, Replicas: c.cfg.Replicas}
	for si, s := range c.shards {
		sv := ShardView{Shard: si, Fence: s.fence, Primary: int(s.primary), Followers: []int{}}
		for _, f := range s.followers {
			sv.Followers = append(sv.Followers, int(f))
		}
		tv.Map = append(tv.Map, sv)
	}
	for _, id := range c.memberIDs() {
		tv.Nodes = append(tv.Nodes, NodeView{
			ID: int(id), Addr: c.members[id].addr,
			Leaving: c.health.Draining(id), Suspected: c.health.Suspected(id),
		})
	}
	return tv
}

func removeID(ids []cluster.NodeID, id cluster.NodeID) []cluster.NodeID {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}
