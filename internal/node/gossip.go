package node

import (
	"slices"
	"time"

	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

// defaultFetchTimeout is the base re-request backoff for a requested block,
// when Params.FetchTimeout is unset.
const defaultFetchTimeout = 20 * time.Second

// maxFetchAttempts bounds how many getdata requests one fetch issues before
// giving up (a future inv restarts it, and the catch-up syncer covers nodes
// that fell genuinely behind).
const maxFetchAttempts = 4

// fetchJitter is the proportional jitter band on each backoff interval:
// timeouts are multiplied by a factor drawn uniformly from [1, 1+fetchJitter).
const fetchJitter = 0.25

// fetchTimeout resolves the configured base re-request timeout.
func (g *Gossip) fetchTimeout() time.Duration {
	if t := g.base.State.Params().FetchTimeout; t > 0 {
		return t
	}
	return defaultFetchTimeout
}

// fetchBackoff is the wait before retry number attempt (0-based): capped
// exponential growth from the base timeout, with multiplicative jitter drawn
// from the node's injected deterministic stream so simultaneous retries
// across the network decorrelate without breaking replay.
func (g *Gossip) fetchBackoff(attempt int) time.Duration {
	d := g.fetchTimeout() * (1 << attempt)
	if cap := 8 * g.fetchTimeout(); d > cap {
		d = cap
	}
	return time.Duration(float64(d) * (1 + fetchJitter*g.env.Rand().Float64()))
}

// pendingFetch tracks an outstanding getdata. Records are recycled through
// Gossip.free once their fetch ends, keeping their announcer arrays and their
// backoff timer, which every later request re-arms. A record points at its
// request and never owns one: a sent message is read-only and may still be
// in flight when the record is reused.
type pendingFetch struct {
	req        *GetDataMsg // one item: what every attempt sends
	announcers []int       // peers that announced it, in order heard
	attempts   int         // requests sent so far; also indexes the rotation
	// timer runs g.timeout(pf); the record's first request makes it and
	// every later one re-arms it. armed is set while it is pending.
	timer Timer
	armed bool
	// compact is set while a getblocktxn is out. A pointer, so fetches
	// that never need one stay in their allocation size class.
	compact *compactFetch
}

// compactFetch is a compact block awaiting the transactions at missing, the
// indexes its getblocktxn named.
type compactFetch struct {
	msg     *CompactBlockMsg
	missing []uint32
}

func (pf *pendingFetch) hash() BlockID { return pf.req.Items[0].Hash }

// newFetch returns a record for a fetch by req first announced by from,
// recycled when one is free.
func (g *Gossip) newFetch(req *GetDataMsg, from int) *pendingFetch {
	var pf *pendingFetch
	if n := len(g.free); n > 0 {
		pf = g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
	} else {
		pf = &pendingFetch{}
	}
	pf.req = req
	pf.announcers = append(pf.announcers[:0], from)
	return pf
}

// recycle returns an ended fetch's record to the free list. A record whose
// timer cannot be stopped any more is left to the collector instead, so a
// late callback never drives a reused record and a kept timer is re-armed
// only once it has fired or been stopped.
func (g *Gossip) recycle(pf *pendingFetch) {
	if pf.armed && !pf.timer.Stop() {
		return
	}
	pf.req, pf.armed, pf.compact, pf.attempts = nil, false, nil, 0
	g.free = append(g.free, pf)
}

// Gossip implements inventory-based block relay over Env: announce new
// blocks with inv, request unknown announcements with getdata, deliver with
// block messages, and re-request from alternate announcers on timeout.
type Gossip struct {
	env  Env
	base *Base

	pending map[BlockID]*pendingFetch
	free    []*pendingFetch // ended fetches' records, for reuse

	// knownHash/knownBy, while a fetched block is being processed, name the
	// peers that announced it to us: they provably have it, so the relay
	// suppresses the useless inv back to them (the operational client's
	// known-inventory filtering). Valid only for the duration of the
	// deliver call that set them.
	knownHash BlockID
	knownBy   []int

	// txQueue coalesces outgoing loose transactions while the flush timer
	// runs (Params.TxBatchInterval > 0): one ordered queue for all peers,
	// each entry naming the one peer it must not go to. Its capacity is
	// kept across flush windows. txQueued is the number of per-peer copies
	// the window owes so far — what QueuedTxs reports. txFlush is the one
	// flush timer, armed by the first relay of each window and re-armed in
	// place: it is pending exactly while txQueue is non-empty.
	txQueue  []queuedTx
	txQueued int
	txFlush  Timer
}

// queuedTx is one relay awaiting the flush: tx goes to every peer but except.
type queuedTx struct {
	tx     *types.Transaction
	except int
}

// NewGossip wires a relay for base.
func NewGossip(env Env, base *Base) *Gossip {
	return &Gossip{env: env, base: base, pending: make(map[BlockID]*pendingFetch)}
}

// Announce sends an inv for b to every peer except `except` (the peer the
// block came from; pass -1 to reach everyone) and except peers that already
// announced the block to us. The block's one shared inv fans out to all
// peers: gossip messages are read-only after send, so the simulated network
// can deliver the same object everywhere, from every node.
func (g *Gossip) Announce(b types.Block, except int) {
	var known []int
	if b.Hash() == g.knownHash {
		known = g.knownBy
	}
	msg := &messagesFor(b).inv
	for _, p := range g.env.Peers() {
		if p == except || slices.Contains(known, p) {
			continue
		}
		g.env.Send(p, msg)
	}
}

// maxInvItems bounds accepted inv/getdata item lists; an oversized message is
// a protocol violation, ignored whole rather than partially honored (and on
// the live path refused by its decoder).
const maxInvItems = 1024

// HandleMessage dispatches one gossip message to its handler. Malformed
// payloads — nil blocks or transactions, oversized lists — are dropped
// without reaching protocol code, so a byzantine peer cannot panic the node.
func (g *Gossip) HandleMessage(from int, msg Message) { msg.dispatch(g, from) }

// RelayTx forwards a loose transaction to every peer except `except` (-1
// reaches everyone). With Params.TxBatchInterval unset each transaction goes
// out immediately in its own TxMsg; otherwise transactions coalesce until
// one shared flush timer fires.
func (g *Gossip) RelayTx(tx *types.Transaction, except int) {
	interval := g.base.State.Params().TxBatchInterval
	if interval <= 0 {
		msg := &TxMsg{Tx: tx}
		for _, p := range g.env.Peers() {
			if p == except {
				continue
			}
			g.env.Send(p, msg)
		}
		return
	}
	switch {
	case len(g.txQueue) > 0: // the window's flush is already armed
	case g.txFlush == nil:
		g.txFlush = g.env.After(interval, g.flushTxs)
	default:
		g.txFlush.Reset(interval)
	}
	g.txQueue = append(g.txQueue, queuedTx{tx, except})
	peers := g.env.Peers()
	g.txQueued += len(peers)
	if slices.Contains(peers, except) {
		g.txQueued--
	}
}

// flushTxs drains the relay queue: one txbatch per peer with queued traffic,
// in env.Peers() order, each carrying the window's transactions in relay
// order minus those that peer sent us. Each batch is counted first and then
// filled into one exactly-sized slice; every peer owed the whole window (none
// of it came from that peer) shares one, since messages are read-only after
// send.
//
// The peer set is read at flush time, not at each RelayTx: a peer that
// vanished mid-window gets nothing (as before), and a peer that connected
// mid-window on the live path now gets the whole window's transactions
// rather than only those relayed after it joined.
func (g *Gossip) flushTxs() {
	var whole []*types.Transaction
	for _, p := range g.env.Peers() {
		n := 0
		for _, q := range g.txQueue {
			if q.except != p {
				n++
			}
		}
		var txs []*types.Transaction
		switch {
		case n == 0:
			continue
		case n == len(g.txQueue) && whole != nil:
			txs = whole
		default:
			txs = make([]*types.Transaction, 0, n)
			for _, q := range g.txQueue {
				if q.except != p {
					txs = append(txs, q.tx)
				}
			}
			if n == len(g.txQueue) {
				whole = txs
			}
		}
		g.env.Send(p, &TxBatchMsg{Txs: txs})
	}
	clear(g.txQueue) // do not pin sent transactions until the slots are reused
	g.txQueue = g.txQueue[:0]
	g.txQueued = 0
}

// QueuedTxs returns how many transactions await a relay flush, summed over
// the peers they are owed to (diagnostics and backpressure sampling).
func (g *Gossip) QueuedTxs() int { return g.txQueued }

func (g *Gossip) handleInv(from int, m *InvMsg) {
	if len(m.Items) > maxInvItems {
		return
	}
	for _, inv := range m.Items {
		if g.base.State.HasBlock(inv.Hash) {
			continue
		}
		if pf, ok := g.pending[inv.Hash]; ok {
			// Already fetching: remember this announcer as a fallback.
			pf.announcers = append(pf.announcers, from)
			continue
		}
		// A single-item inv is its own getdata, unless the fetch asks for
		// another form of the block.
		var req *GetDataMsg
		if len(m.Items) == 1 {
			req = (*GetDataMsg)(m)
		}
		if inv.Type == wire.MsgMicroBlock && g.base.RelayTxs {
			// A relaying pool holds most of the body already.
			inv.Type = wire.MsgCompactBlock
			req = m.compact
		}
		g.fetch(inv, req, from)
	}
}

// fetch starts a pending fetch of inv from the peer that revealed it, asking
// with req when the caller has a one-item request for inv, with a new one
// otherwise.
func (g *Gossip) fetch(inv Inv, req *GetDataMsg, from int) {
	if req == nil {
		req = newGetDataMsg(inv)
	}
	pf := g.newFetch(req, from)
	g.pending[inv.Hash] = pf
	g.request(pf)
}

// request asks an announcer for the block and arms the backoff timer. The
// first request goes to the first announcer heard; each timeout rotates to
// the next announcer (wrapping, so a single source still gets every retry)
// under a capped exponential backoff, until maxFetchAttempts is exhausted.
func (g *Gossip) request(pf *pendingFetch) {
	if pf.attempts >= maxFetchAttempts {
		// Out of retries; give up the targeted fetch and fall back to
		// catch-up sync toward the last announcer asked — if the block still
		// matters we are likely behind by more than one fetch can bridge.
		delete(g.pending, pf.hash())
		g.base.Sync.Start(pf.announcers[(pf.attempts-1)%len(pf.announcers)])
		g.recycle(pf)
		return
	}
	peer := pf.announcers[pf.attempts%len(pf.announcers)]
	backoff := g.fetchBackoff(pf.attempts)
	pf.attempts++
	g.env.Send(peer, pf.req)
	if pf.timer == nil {
		pf.timer = g.env.After(backoff, func() { g.timeout(pf) })
	} else {
		pf.timer.Reset(backoff)
	}
	pf.armed = true
}

// timeout is a fetch's backoff timer firing: retry, or end the fetch.
func (g *Gossip) timeout(pf *pendingFetch) {
	pf.armed = false
	// The identity check (not just presence) guards against a stale timer
	// driving a superseded fetch: acting on pf after the map entry was
	// replaced would re-request from the old announcer list and arm a
	// second timer for the same hash.
	if g.pending[pf.hash()] != pf {
		return
	}
	// A block can enter the chain without passing through handleBlock —
	// injected directly by a harness (equivocation delivery) or adopted
	// from the orphan stash — leaving its fetch entry armed. Without this
	// check the timer keeps re-requesting a block the node already has
	// until the announcer list runs dry.
	if g.base.State.HasBlock(pf.hash()) {
		delete(g.pending, pf.hash())
		g.recycle(pf)
		return
	}
	g.request(pf)
}

func (g *Gossip) handleGetData(from int, m *GetDataMsg) {
	if len(m.Items) > maxInvItems {
		return
	}
	for _, inv := range m.Items {
		n, ok := g.base.State.Store().Get(inv.Hash)
		if !ok {
			continue // we never announce what we don't have; stale request
		}
		msgs := messagesFor(n.Block())
		if msgs.compact.Block != nil && inv.Type == wire.MsgCompactBlock {
			g.env.Send(from, &msgs.compact)
			continue
		}
		g.env.Send(from, &msgs.block)
	}
}

func (g *Gossip) handleBlock(from int, m *BlockMsg) {
	if m.Block == nil {
		return
	}
	g.deliver(from, m.Block)
}

// deliver ends b's fetch, if one is pending, and processes b. The fetch's
// record is recycled only after processing, which reads its announcers.
func (g *Gossip) deliver(from int, b types.Block) {
	h := b.Hash()
	pf, ok := g.pending[h]
	if ok {
		delete(g.pending, h)
		// Everyone who announced the block provably has it; the Announce
		// issued while processing skips them.
		g.knownHash, g.knownBy = h, pf.announcers
	}
	g.base.ProcessFn(b, from)
	g.knownHash, g.knownBy = BlockID{}, nil
	if ok {
		g.recycle(pf)
	}
}

// handleCompactBlock fills a requested compact block from the pool. A
// complete one is delivered at once; otherwise the sender is asked for the
// missing transactions (poison among them: no pool holds one), and the fetch
// timer stays armed: a lost exchange is retried like a lost block. A decoded
// block has its gaps filled with the pooled bodies, and the rebuilt block
// then passes the usual stage-1 checks. The simulator's block is the
// sender's whole object, so the pool is only asked whether it holds each
// transaction: rebuilding would refold the Merkle root and re-verify the
// leader signature at every receiver.
func (g *Gossip) handleCompactBlock(from int, m *CompactBlockMsg) {
	if m.Block == nil || (m.IDs != nil && len(m.IDs) != len(m.Block.Txs)) {
		return
	}
	h := m.Block.Hash()
	pf, ok := g.pending[h]
	if !ok {
		return // unrequested, or already delivered
	}
	var missing []uint32
	for i, tx := range m.Block.Txs {
		if m.IDs == nil && tx == nil {
			return // a whole block with a hole: malformed
		}
		body := g.base.Pool.Get(m.id(i))
		switch {
		case body == nil:
			missing = append(missing, uint32(i))
		case m.IDs != nil:
			m.Block.Txs[i] = body
		}
	}
	if len(missing) == 0 {
		g.deliver(from, m.Block)
		return
	}
	pf.compact = &compactFetch{msg: m, missing: missing}
	g.env.Send(from, &GetBlockTxnMsg{Hash: h, Indexes: missing})
}

// handleGetBlockTxn answers with the transactions of a stored block at
// strictly ascending, in-range indexes; any other request is dropped.
func (g *Gossip) handleGetBlockTxn(from int, m *GetBlockTxnMsg) {
	n, ok := g.base.State.Store().Get(m.Hash)
	if !ok || len(m.Indexes) == 0 {
		return
	}
	txs := n.Block().Transactions()
	reply := &BlockTxnMsg{Hash: m.Hash, Txs: make([]*types.Transaction, len(m.Indexes))}
	next := uint32(0)
	for j, i := range m.Indexes {
		if i < next || int(i) >= len(txs) {
			return
		}
		reply.Txs[j], next = txs[i], i+1
	}
	g.env.Send(from, reply)
}

// handleBlockTxn completes a compact block once every returned transaction
// carries the ID at the index it answers. A reply that does not is dropped
// whole, and the fetch timer retries the block.
func (g *Gossip) handleBlockTxn(from int, m *BlockTxnMsg) {
	pf, ok := g.pending[m.Hash]
	if !ok || pf.compact == nil || len(m.Txs) != len(pf.compact.missing) {
		return
	}
	c, missing := pf.compact.msg, pf.compact.missing
	for j, i := range missing {
		if tx := m.Txs[j]; tx == nil || tx.ID() != c.id(int(i)) {
			return
		}
	}
	if c.IDs != nil {
		for j, i := range missing {
			c.Block.Txs[i] = m.Txs[j]
		}
	}
	g.deliver(from, c.Block)
}

// PendingFetches returns how many block fetches are outstanding
// (diagnostics and leak tests).
func (g *Gossip) PendingFetches() int { return len(g.pending) }

// RequestBlock explicitly fetches a block from a specific peer (used to
// chase an orphan's missing parent).
func (g *Gossip) RequestBlock(inv Inv, from int) {
	if g.base.State.HasBlock(inv.Hash) {
		return
	}
	if pf, ok := g.pending[inv.Hash]; ok {
		pf.announcers = append(pf.announcers, from)
		return
	}
	g.fetch(inv, nil, from)
}
