package simnet

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"bitcoinng/internal/sim"
)

// Config describes the emulated network.
type Config struct {
	// Nodes is the network size (the paper runs 1000).
	Nodes int
	// MinPeers is the minimum outbound degree; each node connects to this
	// many uniformly random peers and links are bidirectional, so the
	// effective degree averages about twice this ("connecting each node to
	// at least 5 other nodes, chosen uniformly at random", §7).
	MinPeers int
	// Latency samples the fixed one-way propagation delay of each link.
	Latency LatencyModel
	// BandwidthBPS is the per-pair bandwidth in bits per second ("about
	// 100kbit/sec among each pair of nodes", §7).
	BandwidthBPS float64
	// ProcPerByte and ProcPerMsg model receiver-side processing (block
	// verification, mempool updates). Messages queue at a busy receiver;
	// this is what eventually caps throughput by node capacity (§8.2).
	ProcPerByte time.Duration
	ProcPerMsg  time.Duration
	// Seed drives topology construction and latency assignment.
	Seed int64
}

// DefaultConfig mirrors the paper's testbed parameters at a configurable
// scale.
func DefaultConfig(nodes int, seed int64) Config {
	return Config{
		Nodes:        nodes,
		MinPeers:     5,
		Latency:      DefaultLatency(),
		BandwidthBPS: 100_000,
		ProcPerByte:  50 * time.Nanosecond, // ~20 MB/s verification rate
		ProcPerMsg:   100 * time.Microsecond,
		Seed:         seed,
	}
}

// Handler receives a delivered message: the sending node, an opaque payload,
// and the wire size the network charged for it.
type Handler func(from int, payload any, size int)

// link is one direction of an edge with store-and-forward queueing.
type link struct {
	latency   int64   // nanos, fixed per edge
	freeAt    int64   // when the sender-side pipe drains
	lossScale float64 // per-link fault susceptibility factor in [0.5, 1.5)
}

// Stats aggregates network-wide counters.
type Stats struct {
	MessagesSent       uint64
	BytesSent          uint64
	MessagesLost       uint64        // dropped by an active partition or a down endpoint
	MessagesDropped    uint64        // dropped by the lossy-link fault model
	MessagesDuplicated uint64        // delivered twice by the fault model
	MessagesReordered  uint64        // delayed past their propagation slot by the fault model
	MaxQueueDelay      time.Duration // worst sender-side bandwidth queuing seen
}

// Loss is the network-wide lossy-link fault model: per-message probabilities
// of dropping, duplicating, or delaying (reordering) a send. Each directed
// link scales these by its own seed-deterministic susceptibility factor in
// [0.5, 1.5), so faults concentrate unevenly the way real flaky paths do.
type Loss struct {
	Drop      float64
	Duplicate float64
	Reorder   float64
}

func (l Loss) active() bool { return l.Drop > 0 || l.Duplicate > 0 || l.Reorder > 0 }

// Network is the emulated overlay. It runs either on a single event loop
// (the default) or sharded across the loops of a sim.ShardedLoop (see Shard):
// per-node and per-directed-link state is then touched only by its owning
// shard, cross-shard deliveries queue in per-shard outboxes merged at window
// barriers, and counters are kept per shard and summed on read.
type Network struct {
	loop     *sim.Loop
	cfg      Config
	adj      [][]int  // peer ids per node (Peers view)
	out      [][]link // per node, the outbound link to each of adj's peers
	handlers []Handler
	busyAt   []int64 // per-node receiver busy-until; owned by the node's shard
	stats    []Stats // per shard; length 1 when unsharded
	// group assigns each node to a partition group; messages between
	// different groups are silently dropped. nil means fully connected.
	// Written only while the loops are quiescent (setup or a barrier).
	group []int
	// latencyScale multiplies per-link propagation delay (the LatencySpike
	// scenario step); 1 means unscaled. Always positive. Same write
	// discipline as group.
	latencyScale float64
	// loss is the active lossy-link fault model (zero value = clean links).
	// Same write discipline as group.
	loss Loss
	// down marks crashed nodes: sends from or to a down node vanish, and
	// in-flight messages are discarded on arrival. Same write discipline as
	// group.
	down []bool
	// faultRng holds one deterministic stream per sender node for fault
	// draws. Draws happen inside the sender's event handlers, so each stream
	// has a single consuming goroutine and a deterministic draw order.
	faultRng []*rand.Rand

	// pools recycles deliveries, one per shard (one when unsharded); see
	// shardPool for who may touch which.
	pools []shardPool

	// Sharded mode (nil/empty when running on a single loop).
	shardLoops []*sim.Loop
	shardOf    []int      // node -> shard
	outbox     [][]outMsg // per sender shard, drained by FlushOutboxes
	merge      []outMsg   // FlushOutboxes' retained scratch, cleared after use
}

// outMsg is one cross-shard delivery waiting for the next window barrier.
type outMsg struct {
	arrival int64 // virtual delivery time at the receiver
	sent    int64 // virtual send time (the heap priority after injection)
	d       *delivery
}

// New builds the topology: MinPeers uniformly random outbound links per
// node, made bidirectional, then patched to a single connected component
// (wiring representatives of stray components together, as a bootstrap node
// list would). The links are drawn first, into one flat list; then every
// node's peers and outbound link states are cut at their final size, in the
// order its links were drawn, from one array each.
func New(loop *sim.Loop, cfg Config) *Network {
	if cfg.Nodes < 2 {
		panic(fmt.Sprintf("simnet: need at least 2 nodes, got %d", cfg.Nodes))
	}
	if cfg.Latency == nil {
		cfg.Latency = DefaultLatency()
	}
	// A node cannot have more neighbors than there are other nodes; small
	// test networks just become cliques.
	if cfg.MinPeers > cfg.Nodes-1 {
		cfg.MinPeers = cfg.Nodes - 1
	}
	n := &Network{
		loop:         loop,
		cfg:          cfg,
		adj:          make([][]int, cfg.Nodes),
		out:          make([][]link, cfg.Nodes),
		handlers:     make([]Handler, cfg.Nodes),
		busyAt:       make([]int64, cfg.Nodes),
		stats:        make([]Stats, 1),
		pools:        make([]shardPool, 1),
		latencyScale: 1,
		down:         make([]bool, cfg.Nodes),
		faultRng:     make([]*rand.Rand, cfg.Nodes),
	}
	const faultStream = 0x50000 // per-sender fault streams: faultStream+id
	for i := 0; i < cfg.Nodes; i++ {
		n.faultRng[i] = sim.NewRand(cfg.Seed, faultStream+uint64(i))
	}
	const topologyStream = 0x7e7 // dedicated stream id for topology building
	rng := sim.NewRand(cfg.Seed, topologyStream)
	// Each node draws at most MinPeers links and the union adds at most one
	// per node, so the draw never regrows the list.
	t := newTopology(cfg.Nodes, cfg.Nodes*cfg.MinPeers+cfg.Nodes-1)
	for i := 0; i < cfg.Nodes; i++ {
		for int(t.deg[i]) < cfg.MinPeers {
			j := rng.Intn(cfg.Nodes)
			if j == i || t.connected(i, j) {
				continue
			}
			t.connect(i, j, int64(cfg.Latency.Sample(rng)))
		}
	}
	t.ensureConnected(rng, cfg.Latency)
	n.build(t)
	return n
}

// topology is New's scratch while it draws the overlay: the undirected links
// in the order they are made, and each node's links chained through them in
// that order, so the draw can test adjacency before any node's slices exist.
// Half-link 2k is link k seen from its a end, 2k+1 from its b end.
type topology struct {
	links      []drawnLink
	head, tail []int32 // per node: first and last half-link, -1 when none
	next       []int32 // per half-link: the node's next one, -1 at the end
	deg        []int32
}

// drawnLink is one undirected link and its propagation delay.
type drawnLink struct {
	a, b int32
	lat  int64
}

// newTopology returns an empty topology of nodes nodes, with room for
// capLinks links.
func newTopology(nodes, capLinks int) *topology {
	t := &topology{
		links: make([]drawnLink, 0, capLinks),
		head:  make([]int32, nodes),
		tail:  make([]int32, nodes),
		next:  make([]int32, 0, 2*capLinks),
		deg:   make([]int32, nodes),
	}
	for i := range t.head {
		t.head[i], t.tail[i] = -1, -1
	}
	return t
}

// connect adds the link a-b, last in both ends' orders.
func (t *topology) connect(a, b int, lat int64) {
	k := int32(len(t.links))
	t.links = append(t.links, drawnLink{a: int32(a), b: int32(b), lat: lat})
	t.next = append(t.next, -1, -1)
	t.chain(a, 2*k)
	t.chain(b, 2*k+1)
}

func (t *topology) chain(node int, h int32) {
	if t.tail[node] < 0 {
		t.head[node] = h
	} else {
		t.next[t.tail[node]] = h
	}
	t.tail[node] = h
	t.deg[node]++
}

// peer returns the far end of half-link h.
func (t *topology) peer(h int32) int {
	if h%2 == 0 {
		return int(t.links[h/2].b)
	}
	return int(t.links[h/2].a)
}

func (t *topology) connected(i, j int) bool {
	for h := t.head[i]; h >= 0; h = t.next[h] {
		if t.peer(h) == j {
			return true
		}
	}
	return false
}

// build gives every node its adj and out slices at their final size, in its
// links' drawn order.
func (n *Network) build(t *topology) {
	ids := make([]int, 2*len(t.links))
	states := make([]link, len(ids))
	off := 0
	for i := range n.adj {
		end := off + int(t.deg[i])
		n.adj[i] = ids[off:end:end]
		n.out[i] = states[off:end:end]
		for h, k := t.head[i], off; h >= 0; h, k = t.next[h], k+1 {
			ids[k] = t.peer(h)
			states[k] = link{latency: t.links[h/2].lat, lossScale: linkLossScale(n.cfg.Seed, i, ids[k])}
		}
		off = end
	}
}

// linkTo returns the i->j link, or nil when not neighbors. Degrees are small
// (MinPeers-scale), so a linear scan beats hashing a composite key on the
// per-message path.
func (n *Network) linkTo(i, j int) *link {
	for k, p := range n.adj[i] {
		if p == j {
			return &n.out[i][k]
		}
	}
	return nil
}

// linkLossScale derives the directed link's fault susceptibility in [0.5, 1.5)
// by hashing (seed, from, to) with a splitmix64 finalizer. Hashing — rather
// than drawing from the topology stream — keeps every pre-fault seed's
// topology and latency assignment byte-identical to what it was before the
// fault model existed.
func linkLossScale(seed int64, from, to int) float64 {
	x := uint64(seed) ^ uint64(from)<<32 ^ uint64(to)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return 0.5 + float64(x>>11)/float64(1<<53)
}

// ensureConnected unions stray components into one: every node whose
// representative differs from node 0's first one is linked to that node,
// with a latency drawn from rng.
func (t *topology) ensureConnected(rng *rand.Rand, latency LatencyModel) {
	parent := make([]int, len(t.deg))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i := range t.deg {
		for h := t.head[i]; h >= 0; h = t.next[h] {
			union(i, t.peer(h))
		}
	}
	root := find(0)
	for i := 1; i < len(t.deg); i++ {
		if find(i) != root {
			t.connect(root, i, int64(latency.Sample(rng)))
			union(root, i)
		}
	}
}

// Size returns the number of nodes.
func (n *Network) Size() int { return n.cfg.Nodes }

// Peers returns node id's neighbors; callers must not mutate the slice.
func (n *Network) Peers(id int) []int { return n.adj[id] }

// Handle registers the delivery callback for node id.
func (n *Network) Handle(id int, h Handler) { n.handlers[id] = h }

// Stats merges the per-shard counters into one network-wide view: the
// volume counters (MessagesSent, BytesSent, MessagesLost) are summed across
// shards, while MaxQueueDelay — a worst-case observation, not a volume — is
// the maximum over shards. Call it only while the loops are quiescent
// (between Run slices or after the run).
func (n *Network) Stats() Stats {
	var total Stats
	for i := range n.stats {
		s := &n.stats[i]
		total.MessagesSent += s.MessagesSent
		total.BytesSent += s.BytesSent
		total.MessagesLost += s.MessagesLost
		total.MessagesDropped += s.MessagesDropped
		total.MessagesDuplicated += s.MessagesDuplicated
		total.MessagesReordered += s.MessagesReordered
		if s.MaxQueueDelay > total.MaxQueueDelay {
			total.MaxQueueDelay = s.MaxQueueDelay
		}
	}
	return total
}

// Shard switches the network into sharded mode: node i schedules against
// loops[shardOf[i]], and deliveries between nodes on different shards are
// buffered until FlushOutboxes runs at a window barrier. Call it once,
// before any traffic, with the per-shard loops of a sim.ShardedLoop; the
// caller must register FlushOutboxes as a barrier hook.
func (n *Network) Shard(loops []*sim.Loop, shardOf []int) {
	if len(shardOf) != n.cfg.Nodes {
		panic(fmt.Sprintf("simnet: shard map for %d nodes on a %d-node network", len(shardOf), n.cfg.Nodes))
	}
	for _, s := range shardOf {
		if s < 0 || s >= len(loops) {
			panic(fmt.Sprintf("simnet: shard %d out of range (%d shards)", s, len(loops)))
		}
	}
	n.shardLoops = loops
	n.shardOf = shardOf
	n.outbox = make([][]outMsg, len(loops))
	n.stats = make([]Stats, len(loops))
	n.pools = make([]shardPool, len(loops))
}

// loopFor returns the event loop that owns node id.
func (n *Network) loopFor(id int) *sim.Loop {
	if n.shardLoops == nil {
		return n.loop
	}
	return n.shardLoops[n.shardOf[id]]
}

// MinCrossShardLatency returns the smallest propagation delay of any link
// between nodes on different shards — the sharded engine's lookahead — under
// the current latency scale (a spike widens the safe window, a shrink
// narrows it; a scaled minimum that truncates to zero clamps to 1ns, the
// engine's degenerate-but-safe floor). Links within a shard don't bound the
// window: their deliveries stay on one loop. Returns 0 when unsharded or
// when no link crosses shards (then any window size is safe).
func (n *Network) MinCrossShardLatency() time.Duration {
	if n.shardOf == nil {
		return 0
	}
	min := int64(0)
	for i, peers := range n.adj {
		for k, p := range peers {
			if n.shardOf[i] == n.shardOf[p] {
				continue
			}
			if lat := n.out[i][k].latency; min == 0 || lat < min {
				min = lat
			}
		}
	}
	if min > 0 && n.latencyScale != 1 {
		if min = int64(float64(min) * n.latencyScale); min < 1 {
			min = 1
		}
	}
	return time.Duration(min)
}

// FlushOutboxes injects buffered cross-shard deliveries into their receiving
// shards' loops, ordered by (arrival, send time, sender shard) — exactly the
// (time, priority, sequence) order the sequential engine's single heap would
// have given them, and hands the cross-shard deliveries that finished during
// the window back to their senders' shards. Runs at window barriers, while
// all shards are quiescent.
func (n *Network) FlushOutboxes() {
	for s := range n.pools {
		for d := n.pools[s].back; d != nil; {
			next := d.next
			n.pools[n.shardOf[d.from]].put(d)
			d = next
		}
		n.pools[s].back = nil
	}
	total := 0
	for s := range n.outbox {
		total += len(n.outbox[s])
	}
	if total == 0 {
		return
	}
	all := n.merge[:0]
	for s := range n.outbox {
		all = append(all, n.outbox[s]...)
		n.outbox[s] = n.outbox[s][:0]
	}
	// Stable: concatenation order supplies the sender-shard tie-break.
	slices.SortStableFunc(all, func(a, b outMsg) int {
		if c := cmp.Compare(a.arrival, b.arrival); c != 0 {
			return c
		}
		return cmp.Compare(a.sent, b.sent)
	})
	for i := range all {
		m := &all[i]
		n.loopFor(m.d.to).PostEventPrio(m.arrival, m.sent, m.d)
	}
	clear(all)
	n.merge = all[:0]
}

// SetPartition splits the network: group[i] is node i's side, and messages
// between different sides vanish (a WAN cut). Pass nil to heal. In-flight
// messages already past the cut still deliver, like packets in transit when
// a link fails.
func (n *Network) SetPartition(group []int) {
	if group != nil && len(group) != n.cfg.Nodes {
		panic(fmt.Sprintf("simnet: partition of %d nodes on a %d-node network", len(group), n.cfg.Nodes))
	}
	n.group = group
}

// ScaleLatency sets the absolute propagation-delay factor applied to every
// link from now on: each link's configured delay is multiplied by factor.
// Calls replace one another rather than composing — ScaleLatency(2) followed
// by ScaleLatency(3) is a 3x spike, not 6x — and 1 restores the configured
// model. Messages already in flight keep the delay they were sent with, like
// packets on the wire when a route degrades. factor must be positive: zero
// would stall lookahead in the sharded engine and negative delays are
// meaningless, so both panic (the scenario layer validates upstream and
// surfaces a step error instead).
func (n *Network) ScaleLatency(factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("simnet: latency scale factor %v must be > 0", factor))
	}
	n.latencyScale = factor
}

// SetLoss installs (or, with the zero value, clears) the lossy-link fault
// model. Like SetPartition it must run while the loops are quiescent; messages
// already in flight are unaffected.
func (n *Network) SetLoss(l Loss) {
	if l.Drop < 0 || l.Duplicate < 0 || l.Reorder < 0 ||
		l.Drop > 1 || l.Duplicate > 1 || l.Reorder > 1 {
		panic(fmt.Sprintf("simnet: loss probabilities out of [0,1]: %+v", l))
	}
	n.loss = l
}

// SetNodeDown marks node id as crashed (true) or back up (false). While down,
// sends from or to the node count as lost and in-flight messages are
// discarded at arrival. Must run while the loops are quiescent.
func (n *Network) SetNodeDown(id int, down bool) {
	n.down[id] = down
}

// PartitionAssignment expands explicit groups of node indices into the
// per-node assignment SetPartition takes: listed nodes get group index+1,
// everyone unlisted joins group 0. An out-of-range index is an error (left
// unprefixed for callers to wrap with their package name).
func PartitionAssignment(nodes int, groups [][]int) ([]int, error) {
	assignment := make([]int, nodes)
	for g, members := range groups {
		for _, id := range members {
			if id < 0 || id >= nodes {
				return nil, fmt.Errorf("partition node %d out of range (network size %d)", id, nodes)
			}
			assignment[id] = g + 1
		}
	}
	return assignment, nil
}

// Send transmits payload of the given wire size from -> to. Delivery time is
// queueing (sender-side pipe busy) + transfer (size over bandwidth) +
// propagation (link latency) + receiver processing (queued behind earlier
// arrivals). Sends between unconnected nodes panic: the overlay has no
// routing, only direct links, like Bitcoin's gossip.
//
// In sharded mode Send runs on the sending node's shard (or on the driver at
// a barrier): it touches only that shard's link state and counters, and a
// delivery crossing shards is buffered for FlushOutboxes instead of being
// posted directly into a loop another goroutine is draining.
func (n *Network) Send(from, to int, payload any, size int) {
	l := n.linkTo(from, to)
	if l == nil {
		panic(fmt.Sprintf("simnet: no link %d->%d", from, to))
	}
	shard := 0
	if n.shardOf != nil {
		shard = n.shardOf[from]
	}
	st := &n.stats[shard]
	if n.down[from] || n.down[to] {
		st.MessagesLost++
		return
	}
	if n.group != nil && n.group[from] != n.group[to] {
		st.MessagesLost++
		return
	}
	// Lossy-link faults draw from the sender's dedicated stream, in a fixed
	// order per send (drop, then duplicate, then reorder), so the draw
	// sequence is a deterministic function of the sender's event order —
	// identical on the sequential and sharded engines.
	var extraDelay, dupDelay int64
	duplicate := false
	if n.loss.active() {
		frng := n.faultRng[from]
		scale := l.lossScale
		if p := n.loss.Drop * scale; p > 0 && frng.Float64() < p {
			st.MessagesDropped++
			return
		}
		span := l.latency
		if span < 1 {
			span = 1
		}
		if p := n.loss.Duplicate * scale; p > 0 && frng.Float64() < p {
			duplicate = true
			dupDelay = 1 + frng.Int63n(span)
		}
		if p := n.loss.Reorder * scale; p > 0 && frng.Float64() < p {
			st.MessagesReordered++
			extraDelay = 1 + frng.Int63n(2*span)
		}
	}
	now := n.loopFor(from).Now()
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	if q := time.Duration(start - now); q > st.MaxQueueDelay {
		st.MaxQueueDelay = q
	}
	transfer := int64(float64(size*8) / n.cfg.BandwidthBPS * float64(time.Second))
	l.freeAt = start + transfer
	latency := l.latency
	if n.latencyScale != 1 {
		latency = int64(float64(latency) * n.latencyScale)
	}
	// Fault delays only ever add latency, so the sharded engine's lookahead
	// (MinCrossShardLatency, a lower bound on cross-shard arrival) stays safe.
	arrival := l.freeAt + latency + extraDelay

	st.MessagesSent++
	st.BytesSent += uint64(size)

	n.post(shard, arrival, now, n.newDelivery(shard, from, to, payload, size))
	if duplicate {
		st.MessagesDuplicated++
		n.post(shard, arrival+dupDelay, now, n.newDelivery(shard, from, to, payload, size))
	}
}

// maxFreeDeliveries bounds each shard's free list; a delivery finishing on a
// full list is left to the collector. Cross-shard deliveries go back to their
// sender's list (see shardPool), so one-way traffic cannot pile them up on
// the receiving shard.
const maxFreeDeliveries = 4096

// shardPool is one shard's supply of recycled deliveries. A delivery is taken
// from its sender's shard by Send and finishes on its receiver's shard, after
// the second hop or on finding the receiver down. One that finishes on its
// own shard goes straight back to free; one from another shard waits in
// back until the next barrier, where FlushOutboxes returns it to its
// sender's free list. So a pool is touched only by its own shard's events,
// and by the driver while every shard is parked at a barrier.
type shardPool struct {
	free  *delivery // linked through next, at most maxFreeDeliveries
	nfree int
	back  *delivery // finished here, owed to other shards
}

// put pushes d, cleared so it pins no payload, onto the free list, unless
// the list is full.
func (p *shardPool) put(d *delivery) {
	if p.nfree >= maxFreeDeliveries {
		return
	}
	*d = delivery{n: d.n, next: p.free}
	p.free = d
	p.nfree++
}

// newDelivery takes a delivery from shard's free list, or allocates one.
func (n *Network) newDelivery(shard, from, to int, payload any, size int) *delivery {
	p := &n.pools[shard]
	d := p.free
	if d == nil {
		d = &delivery{n: n}
	} else {
		p.free = d.next
		p.nfree--
	}
	d.from, d.to, d.payload, d.size, d.next = from, to, payload, size, nil
	return d
}

// recycle retires a finished delivery on its receiver's shard.
func (n *Network) recycle(d *delivery) {
	if n.shardOf == nil {
		n.pools[0].put(d)
		return
	}
	p := &n.pools[n.shardOf[d.to]]
	if n.shardOf[d.from] == n.shardOf[d.to] {
		p.put(d)
		return
	}
	*d = delivery{n: d.n, from: d.from, next: p.back}
	p.back = d
}

// post routes one delivery to the receiver's loop, buffering cross-shard
// sends for FlushOutboxes.
func (n *Network) post(senderShard int, arrival, sent int64, d *delivery) {
	if n.shardOf != nil && n.shardOf[d.to] != senderShard {
		n.outbox[senderShard] = append(n.outbox[senderShard], outMsg{arrival: arrival, sent: sent, d: d})
		return
	}
	n.loopFor(d.to).PostEvent(arrival, d)
}

// delivery carries one in-flight message through its two scheduling hops
// (arrival at the receiver, then completion of receiver-side processing): it
// is its own event (sim.Runnable), re-posting itself for the second hop, and
// is recycled through the shard pools once it has finished.
type delivery struct {
	n        *Network
	from, to int
	size     int
	payload  any
	arrived  bool
	next     *delivery // free or back list link while recycled
}

// Run implements sim.Runnable. The first hop lands at propagation end, where
// receiver processing serializes behind earlier work (§8.2 — node capacity
// is what ultimately caps throughput); the second hand the message to the
// receiver once processed. Both hops run on the receiving node's shard, so
// busyAt[to] has a single writing goroutine.
func (d *delivery) Run() {
	n := d.n
	if n.down[d.to] {
		// The receiver crashed while this message was in flight (or before
		// it cleared receiver-side processing): it vanishes with the
		// receiver's in-memory state.
		shard := 0
		if n.shardOf != nil {
			shard = n.shardOf[d.to]
		}
		n.stats[shard].MessagesLost++
		n.recycle(d)
		return
	}
	if !d.arrived {
		d.arrived = true
		loop := n.loopFor(d.to)
		procStart := loop.Now()
		if n.busyAt[d.to] > procStart {
			procStart = n.busyAt[d.to]
		}
		done := procStart + int64(n.cfg.ProcPerMsg) + int64(n.cfg.ProcPerByte)*int64(d.size)
		n.busyAt[d.to] = done
		loop.PostEvent(done, d)
		return
	}
	// The delivery goes back to its pool before the handler runs, so sends
	// the handler makes can reuse it.
	h, from, payload, size := n.handlers[d.to], d.from, d.payload, d.size
	n.recycle(d)
	if h != nil {
		h(from, payload, size)
	}
}

// Broadcast sends payload to every neighbor of from.
func (n *Network) Broadcast(from int, payload any, size int) {
	for _, p := range n.adj[from] {
		n.Send(from, p, payload, size)
	}
}
