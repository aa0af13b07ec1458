package node

import (
	"slices"
	"time"

	"bitcoinng/internal/types"
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

// pendingFetch tracks an outstanding getdata. The request message is built
// once and reused across retry rounds (messages are read-only after send).
type pendingFetch struct {
	req        GetDataMsg
	announcers []int // peers that announced it, in order heard
	attempts   int   // requests sent so far; also indexes the rotation
	timer      Timer
}

func newPendingFetch(inv Inv, from int) *pendingFetch {
	pf := &pendingFetch{announcers: []int{from}}
	pf.req.Items = []Inv{inv}
	return pf
}

func (pf *pendingFetch) hash() BlockID { return pf.req.Items[0].Hash }

// Gossip implements inventory-based block relay over Env: announce new
// blocks with inv, request unknown announcements with getdata, deliver with
// block messages, and re-request from alternate announcers on timeout.
type Gossip struct {
	env  Env
	base *Base

	pending map[BlockID]*pendingFetch

	// knownHash/knownBy, while a fetched block is being processed, name the
	// peers that announced it to us: they provably have it, so the relay
	// suppresses the useless inv back to them (the operational client's
	// known-inventory filtering). Valid only for the duration of the
	// handleBlock call that set them.
	knownHash BlockID
	knownBy   []int

	// txQueue coalesces outgoing loose transactions while the flush timer
	// runs (Params.TxBatchInterval > 0): one ordered queue for all peers,
	// each entry naming the one peer it must not go to. Its capacity is
	// kept across flush windows. txQueued is the number of per-peer copies
	// the window owes so far — what QueuedTxs reports.
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
// announced the block to us. One message object fans out to all peers:
// gossip messages are read-only after send, so the simulated network can
// deliver the same object everywhere.
func (g *Gossip) Announce(b types.Block, except int) {
	h := b.Hash()
	var known []int
	if h == g.knownHash {
		known = g.knownBy
	}
	msg := &InvMsg{Items: []Inv{{Type: types.BlockMsgType(b), Hash: h}}}
	for _, p := range g.env.Peers() {
		if p == except || slices.Contains(known, p) {
			continue
		}
		g.env.Send(p, msg)
	}
}

// maxInvItems bounds accepted inv/getdata item lists; an oversized message is
// a protocol violation and is ignored whole rather than partially honored.
const maxInvItems = 1024

// HandleMessage dispatches one gossip message. Unknown message types are
// ignored (forward compatibility), and malformed payloads — nil blocks or
// transactions, oversized item lists — are dropped without reaching protocol
// code, so a byzantine peer cannot panic the node.
func (g *Gossip) HandleMessage(from int, msg Message) {
	switch m := msg.(type) {
	case *InvMsg:
		if len(m.Items) > maxInvItems {
			return
		}
		g.handleInv(from, m)
	case *GetDataMsg:
		if len(m.Items) > maxInvItems {
			return
		}
		g.handleGetData(from, m)
	case *BlockMsg:
		if m.Block == nil {
			return
		}
		g.handleBlock(from, m)
	case *TxMsg:
		g.base.handleTx(from, m.Tx)
	case *TxBatchMsg:
		for _, tx := range m.Txs {
			g.base.handleTx(from, tx)
		}
	case *GetBlocksMsg:
		g.base.Sync.handleGetBlocks(from, m)
	case *BlockBatchMsg:
		g.base.Sync.handleBlockBatch(from, m)
	}
}

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
	g.txQueue = append(g.txQueue, queuedTx{tx, except})
	peers := g.env.Peers()
	g.txQueued += len(peers)
	if slices.Contains(peers, except) {
		g.txQueued--
	}
	if g.txFlush == nil {
		g.txFlush = g.env.After(interval, g.flushTxs)
	}
}

// flushTxs drains the relay queue: one txbatch per peer with queued traffic,
// in env.Peers() order, each carrying the window's transactions in relay
// order minus those that peer sent us. Each batch is counted first and then
// filled into one exactly-sized slice.
//
// The peer set is read at flush time, not at each RelayTx: a peer that
// vanished mid-window gets nothing (as before), and a peer that connected
// mid-window on the live path now gets the whole window's transactions
// rather than only those relayed after it joined.
func (g *Gossip) flushTxs() {
	g.txFlush = nil
	for _, p := range g.env.Peers() {
		n := 0
		for _, q := range g.txQueue {
			if q.except != p {
				n++
			}
		}
		if n == 0 {
			continue
		}
		txs := make([]*types.Transaction, 0, n)
		for _, q := range g.txQueue {
			if q.except != p {
				txs = append(txs, q.tx)
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
	for _, inv := range m.Items {
		if g.base.State.HasBlock(inv.Hash) {
			continue
		}
		if pf, ok := g.pending[inv.Hash]; ok {
			// Already fetching: remember this announcer as a fallback.
			pf.announcers = append(pf.announcers, from)
			continue
		}
		pf := newPendingFetch(inv, from)
		g.pending[inv.Hash] = pf
		g.request(pf)
	}
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
		return
	}
	peer := pf.announcers[pf.attempts%len(pf.announcers)]
	backoff := g.fetchBackoff(pf.attempts)
	pf.attempts++
	g.env.Send(peer, &pf.req)
	pf.timer = g.env.After(backoff, func() {
		pf.timer = nil
		// The identity check (not just presence) guards against a stale
		// timer driving a superseded fetch: acting on pf after the map
		// entry was replaced would re-request from the old announcer list
		// and arm a second timer for the same hash.
		if g.pending[pf.hash()] != pf {
			return
		}
		// A block can enter the chain without passing through handleBlock
		// — injected directly by a harness (equivocation delivery) or
		// adopted from the orphan stash — leaving its fetch entry armed.
		// Without this check the timer keeps re-requesting a block the
		// node already has until the announcer list runs dry.
		if g.base.State.HasBlock(pf.hash()) {
			delete(g.pending, pf.hash())
			return
		}
		g.request(pf)
	})
}

func (g *Gossip) handleGetData(from int, m *GetDataMsg) {
	for _, inv := range m.Items {
		n, ok := g.base.State.Store().Get(inv.Hash)
		if !ok {
			continue // we never announce what we don't have; stale request
		}
		g.env.Send(from, &BlockMsg{Block: n.Block()})
	}
}

func (g *Gossip) handleBlock(from int, m *BlockMsg) {
	h := m.Block.Hash()
	if pf, ok := g.pending[h]; ok {
		if pf.timer != nil {
			pf.timer.Stop()
		}
		delete(g.pending, h)
		// Everyone who announced the block provably has it; the Announce
		// issued while processing skips them.
		g.knownHash, g.knownBy = h, pf.announcers
	}
	g.base.ProcessFn(m.Block, from)
	g.knownHash, g.knownBy = BlockID{}, nil
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
	pf := newPendingFetch(inv, from)
	g.pending[inv.Hash] = pf
	g.request(pf)
}
