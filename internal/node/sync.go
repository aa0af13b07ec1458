package node

import (
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

// Syncer is the locator-based catch-up protocol: a node that suspects it is
// behind (after a restart, or when orphan-driven fetching runs dry) sends a
// GetBlocksMsg whose locator walks its main chain with exponentially growing
// gaps; the responder finds the highest locator entry on its own main chain
// and returns the blocks after it in bounded batches. The requester re-asks
// while batches signal More, and on timeout rotates to the next peer under
// the same capped exponential backoff discipline as the gossip fetcher —
// every wait drawn from the node's injected deterministic stream, so a
// replayed seed resynchronizes identically.
type Syncer struct {
	env  Env
	base *Base

	active   bool
	peer     int // peer the outstanding request went to
	rotation int // cursor into env.Peers() for timeout rotation
	attempt  int // consecutive timeouts since the last useful batch
	timer    Timer
}

const (
	// syncBatchSize bounds how many blocks one BlockBatchMsg carries; the
	// frame limit (wire.MaxMessageSize) bounds it further by bytes.
	syncBatchSize = 32
	// maxLocatorLen bounds accepted locators (a well-formed locator for a
	// chain of 2^50 blocks is still under this).
	maxLocatorLen = 64
	// maxSyncBatch bounds accepted batches; anything larger is a protocol
	// violation and is ignored whole.
	maxSyncBatch = 4 * syncBatchSize
)

func newSyncer(env Env, base *Base) *Syncer {
	return &Syncer{env: env, base: base, peer: -1}
}

// Active reports whether a catch-up exchange is in flight.
func (s *Syncer) Active() bool { return s.active }

// Start begins (or re-kicks) catch-up sync. preferred, when a current peer,
// receives the first request — restarted nodes pass -1 and take the rotation
// order; orphan-path kicks pass the peer that revealed the gap. A Start while
// a sync is already in flight is a no-op: the running exchange covers it.
func (s *Syncer) Start(preferred int) {
	if s.active {
		return
	}
	s.active = true
	s.attempt = 0
	for _, p := range s.env.Peers() {
		if p == preferred {
			s.requestFrom(preferred)
			return
		}
	}
	s.requestFrom(s.nextPeer())
}

// nextPeer advances the rotation cursor; -1 (cursor untouched) while the node
// has no peers at all — a live node whose last connection dropped.
func (s *Syncer) nextPeer() int {
	peers := s.env.Peers()
	if len(peers) == 0 {
		return -1
	}
	p := peers[s.rotation%len(peers)]
	s.rotation++
	return p
}

// requestFrom sends one GetBlocksMsg and arms the response timeout. With no
// peer to ask (-1) only the timer is armed, so a peerless syncer keeps
// probing at the capped backoff rate and resumes when peers return.
func (s *Syncer) requestFrom(peer int) {
	s.peer = peer
	if peer >= 0 {
		s.env.Send(peer, &GetBlocksMsg{Locator: s.locator()})
	}
	s.timer = s.env.After(s.base.Gossip.fetchBackoff(s.attempt), s.onTimeout)
}

// onTimeout rotates to the next peer under growing backoff. There is no
// give-up: a response (even an empty "nothing newer" one) is the only exit,
// so a node cut off by loss or partition keeps probing at the capped rate
// until the network lets it converge.
func (s *Syncer) onTimeout() {
	s.timer = nil
	if !s.active {
		return
	}
	s.attempt++
	p := s.nextPeer()
	if p == s.peer && len(s.env.Peers()) > 1 {
		// A timeout means the asked peer is unresponsive; with alternatives
		// available the retry must go elsewhere, not back to it.
		p = s.nextPeer()
	}
	s.requestFrom(p)
}

// locator lists block hashes from the tip backwards: the last 10 blocks
// densely, then exponentially sparser, always ending at genesis (the
// operational client's block-locator shape).
func (s *Syncer) locator() []BlockID {
	var loc []BlockID
	step := uint64(1)
	for n := s.base.State.Tip(); n != nil; {
		loc = append(loc, n.Hash())
		if n.Height == 0 {
			break
		}
		if len(loc) >= 10 {
			step *= 2
		}
		var h uint64
		if n.Height > step {
			h = n.Height - step
		}
		n = n.AncestorAtHeight(h)
	}
	return loc
}

// handleGetBlocks serves one bounded batch after the requester's fork point:
// at most syncBatchSize blocks and at most one frame's worth of bytes — a
// batch the live transport cannot frame gets the responder dropped as a
// misbehaving peer — but always at least one block, so sync makes progress.
// Malformed locators (empty or oversized) are ignored without reply.
func (s *Syncer) handleGetBlocks(from int, m *GetBlocksMsg) {
	if len(m.Locator) == 0 || len(m.Locator) > maxLocatorLen {
		return
	}
	st := s.base.State
	fork := st.Store().Genesis()
	for _, h := range m.Locator {
		if n, ok := st.Store().Get(h); ok && st.MainChainContains(n) {
			fork = n
			break
		}
	}
	mc := st.MainChain()
	start := int(fork.Height) + 1
	if start >= len(mc) {
		// Nothing newer than the requester's fork point; an empty non-More
		// batch lets its sync terminate.
		s.env.Send(from, &BlockBatchMsg{})
		return
	}
	end := min(start+syncBatchSize, len(mc))
	batch := &BlockBatchMsg{Blocks: make([]types.Block, 0, end-start)}
	for _, n := range mc[start:end] {
		batch.Blocks = append(batch.Blocks, n.Block())
		if batch.Size() > wire.MaxMessageSize && len(batch.Blocks) > 1 {
			batch.Blocks = batch.Blocks[:len(batch.Blocks)-1]
			break
		}
	}
	batch.More = start+len(batch.Blocks) < len(mc)
	s.env.Send(from, batch)
}

// handleBlockBatch ingests a sync response. Blocks flow through the normal
// ProcessFn path (validation, fraud detection, persistence, relay), in
// parent-before-child order, so a batch behaves exactly like a fast replay of
// ordinary gossip. Only a response from the currently-asked peer advances the
// sync state machine; stray or duplicated batches are ingested as free data.
func (s *Syncer) handleBlockBatch(from int, m *BlockBatchMsg) {
	if len(m.Blocks) > maxSyncBatch {
		return // protocol violation; ignore whole
	}
	for _, b := range m.Blocks {
		if b == nil {
			return // malformed
		}
		s.base.ProcessFn(b, from)
	}
	if !s.active || from != s.peer {
		return
	}
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if m.More {
		// Progress: reset the backoff and continue with the same peer from
		// our (now advanced) tip.
		s.attempt = 0
		s.requestFrom(from)
		return
	}
	s.active = false
	s.peer = -1
}
