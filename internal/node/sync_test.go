package node_test

import (
	"testing"
	"time"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

// extendChain mines n blocks on top of base's current tip, adding each
// directly to its state, and returns the blocks.
func extendChain(t *testing.T, h *harness, owner int, key *crypto.PrivateKey, n int) []types.Block {
	t.Helper()
	base := h.bases[owner]
	blocks := make([]types.Block, 0, n)
	for i := 0; i < n; i++ {
		tip := base.State.Tip()
		b := mineOn(t, key, tip.Hash(), tip.Height+1)
		if _, err := base.State.AddBlock(b, 0); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// TestSyncCatchUp: a node far behind recovers the whole suffix through
// repeated locator exchanges, then terminates on the empty non-More batch.
func TestSyncCatchUp(t *testing.T) {
	h, _, key := newHarness(t, 2)
	// Node 0 is 80 blocks ahead — more than two 32-block batches.
	extendChain(t, h, 0, key, 80)

	h.bases[1].Sync.Start(0)
	h.drain()

	if got, want := h.bases[1].State.Height(), h.bases[0].State.Height(); got != want {
		t.Fatalf("synced height = %d, want %d", got, want)
	}
	if h.bases[1].State.Tip().Hash() != h.bases[0].State.Tip().Hash() {
		t.Error("tips diverge after sync")
	}
	if h.bases[1].Sync.Active() {
		t.Error("sync still active after terminal batch")
	}
}

// TestSyncFromFork: the locator finds the common ancestor, so a node on a
// stale branch downloads only the winning suffix and reorgs onto it.
func TestSyncFromFork(t *testing.T) {
	h, _, key := newHarness(t, 2)
	// Shared prefix of 5 blocks on both nodes.
	shared := extendChain(t, h, 0, key, 5)
	for _, b := range shared {
		if _, err := h.bases[1].State.AddBlock(b, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Node 1 mines 2 blocks of its own branch; node 0's branch grows by 10
	// and wins.
	fork := h.bases[1].State.Tip()
	b := mineOn(t, key, fork.Hash(), fork.Height+1)
	b.Header.TimeNanos = 7777 // distinct hash from node 0's branch
	if _, err := h.bases[1].State.AddBlock(b, 0); err != nil {
		t.Fatal(err)
	}
	extendChain(t, h, 0, key, 10)

	h.bases[1].Sync.Start(0)
	h.drain()

	if h.bases[1].State.Tip().Hash() != h.bases[0].State.Tip().Hash() {
		t.Error("forked node did not reorg onto the synced branch")
	}
}

// TestSyncTimeoutRotatesPeers: an unresponsive peer costs one backoff, then
// the next peer serves the exchange.
func TestSyncTimeoutRotatesPeers(t *testing.T) {
	h, _, key := newHarness(t, 3)
	extendChain(t, h, 0, key, 3)
	// Node 1 has the same chain so either source can serve it.
	for _, bn := range h.bases[0].State.MainChain()[1:] {
		if _, err := h.bases[1].State.AddBlock(bn.Block(), 0); err != nil {
			t.Fatal(err)
		}
	}

	h.mute[0] = true
	h.bases[2].Sync.Start(0) // preferred peer is mute
	h.drain()
	if h.bases[2].State.Height() != 0 {
		t.Fatal("blocks arrived from a mute peer")
	}
	// First sync backoff is [20s, 25s); after it the syncer rotates.
	h.advance(25 * time.Second)
	h.drain()
	if got, want := h.bases[2].State.Height(), h.bases[0].State.Height(); got != want {
		t.Errorf("height after rotation = %d, want %d", got, want)
	}
	if h.bases[2].Sync.Active() {
		t.Error("sync still active after rotation served it")
	}
}

// TestSyncStrayBatchDoesNotAdvance: batches from peers other than the one
// currently asked are ingested as data but must not drive the state machine
// (a lossy network duplicating an old batch cannot double-advance the sync).
func TestSyncStrayBatchDoesNotAdvance(t *testing.T) {
	h, genesis, key := newHarness(t, 3)
	b1 := mineOn(t, key, genesis.Hash(), 1)

	h.mute[0] = true
	h.bases[2].Sync.Start(0)
	h.drain()
	if !h.bases[2].Sync.Active() {
		t.Fatal("sync not active")
	}
	// A stray batch from peer 1 (not the asked peer) with More set: the data
	// lands, the machine stays pointed at peer 0.
	h.bases[2].HandleMessage(1, &node.BlockBatchMsg{Blocks: []types.Block{b1}, More: true})
	if !h.bases[2].State.HasBlock(b1.Hash()) {
		t.Error("stray batch's block was discarded")
	}
	if !h.bases[2].Sync.Active() {
		t.Error("stray batch terminated the sync")
	}
	// No GetBlocksMsg to peer 1 may have been triggered by the stray batch.
	for _, qm := range h.envs[2].queue {
		if _, ok := qm.msg.(*node.GetBlocksMsg); ok && qm.to == 1 {
			t.Error("stray batch advanced the state machine")
		}
	}
}

// TestSyncServerBounds: the responder ignores empty and oversized locators
// outright and never serves more than a batch at a time.
func TestSyncServerBounds(t *testing.T) {
	h, _, key := newHarness(t, 2)
	extendChain(t, h, 0, key, 40)

	h.bases[0].HandleMessage(1, &node.GetBlocksMsg{})
	h.bases[0].HandleMessage(1, &node.GetBlocksMsg{Locator: make([]node.BlockID, 65)})
	if len(h.envs[0].queue) != 0 {
		t.Fatal("responder answered a malformed locator")
	}

	loc := []node.BlockID{h.bases[0].State.Store().Genesis().Hash()}
	h.bases[0].HandleMessage(1, &node.GetBlocksMsg{Locator: loc})
	if len(h.envs[0].queue) != 1 {
		t.Fatalf("queued %d replies, want 1", len(h.envs[0].queue))
	}
	batch, ok := h.envs[0].queue[0].msg.(*node.BlockBatchMsg)
	if !ok {
		t.Fatalf("reply is %T, want *node.BlockBatchMsg", h.envs[0].queue[0].msg)
	}
	if len(batch.Blocks) != 32 {
		t.Errorf("batch carries %d blocks, want 32", len(batch.Blocks))
	}
	if !batch.More {
		t.Error("40-deep suffix served without More")
	}
}

// TestSyncSurvivesPeerlessNode: a node whose peer set empties mid-sync (a live
// node whose last connection dropped) must not divide by zero rotating
// through nobody; it keeps its capped-backoff timer armed, and the retry that
// fires after peers return completes the exchange. Starting peerless behaves
// the same way.
func TestSyncSurvivesPeerlessNode(t *testing.T) {
	h, _, key := newHarness(t, 2)
	extendChain(t, h, 0, key, 5)
	peers := h.envs[1].peers

	h.mute[0] = true
	h.bases[1].Sync.Start(0)
	h.drain() // request swallowed by the mute peer; the timeout is armed
	h.envs[1].peers = nil
	for i := 0; i < 6; i++ { // through the backoff cap, peerless the whole way
		h.advance(4 * time.Minute)
		h.drain()
	}
	if !h.bases[1].Sync.Active() {
		t.Fatal("peerless syncer gave up; nothing will resume it when peers return")
	}
	if got := armed(h.envs[1]); got != 1 {
		t.Fatalf("peerless syncer holds %d armed timers, want exactly its retry", got)
	}

	h.mute[0] = false
	h.envs[1].peers = peers
	h.advance(4 * time.Minute)
	h.drain()
	if got, want := h.bases[1].State.Height(), h.bases[0].State.Height(); got != want {
		t.Errorf("height after peers returned = %d, want %d", got, want)
	}
	if h.bases[1].Sync.Active() {
		t.Error("sync still active after the terminal batch")
	}

	// Kicked while peerless, the syncer arms its timer instead of dropping
	// the request on the floor.
	h.envs[1].peers = nil
	h.bases[1].Sync.Start(-1)
	if !h.bases[1].Sync.Active() || armed(h.envs[1]) != 1 {
		t.Error("a sync kicked while peerless did not arm its retry")
	}
}

// armed counts the env's timers that can still fire.
func armed(e *fakeEnv) int {
	n := 0
	for _, ft := range e.timers {
		if !ft.stopped && !ft.fired {
			n++
		}
	}
	return n
}

// mineFatOn is mineOn with the coinbase inflated to ~230 KB (the shape
// limits' worth of zero-value outputs and padding): eighteen such blocks
// fill a 4 MiB frame.
func mineFatOn(t *testing.T, key *crypto.PrivateKey, prev crypto.Hash, height uint64) *types.PowBlock {
	t.Helper()
	b := mineOn(t, key, prev, height)
	cb := b.Txs[0]
	for len(cb.Outputs) < types.MaxTxOutputs {
		cb.Outputs = append(cb.Outputs, types.TxOutput{To: key.Public().Addr()})
	}
	cb.Padding = make([]byte, types.MaxTxPadding)
	b.Header.MerkleRoot = crypto.MerkleRoot(types.TxIDs(b.Txs))
	return b
}

// TestSyncBatchesFitOneFrame: batches are bounded by bytes, not only by
// block count. Forty fat blocks are 9 MB — thirty-two of them, the count
// limit, would be a 7 MB BlockBatchMsg that the live transport refuses to
// frame (wire.MaxMessageSize), dropping the serving peer mid-sync. The
// responder must cut each batch at the frame limit, flag More, and the
// requester must still reach the tip over several rounds.
func TestSyncBatchesFitOneFrame(t *testing.T) {
	h, _, key := newHarness(t, 2)
	for i := 0; i < 40; i++ {
		tip := h.bases[0].State.Tip()
		if _, err := h.bases[0].State.AddBlock(mineFatOn(t, key, tip.Hash(), tip.Height+1), 0); err != nil {
			t.Fatal(err)
		}
	}

	h.bases[1].Sync.Start(0)
	rounds := 0
	for {
		for _, qm := range h.envs[0].queue {
			batch, ok := qm.msg.(*node.BlockBatchMsg)
			if !ok {
				continue
			}
			if len(batch.Blocks) > 0 {
				rounds++
			}
			if frame := batch.Size(); frame > wire.MaxMessageSize {
				t.Fatalf("batch of %d blocks frames to %d bytes, over the %d limit", len(batch.Blocks), frame, wire.MaxMessageSize)
			}
			if len(batch.Blocks) == 0 && batch.More {
				t.Fatal("empty batch flagged More: sync cannot progress")
			}
		}
		if h.pump() == 0 {
			break
		}
	}
	if got, want := h.bases[1].State.Tip().Hash(), h.bases[0].State.Tip().Hash(); got != want {
		t.Fatalf("requester stopped at height %d of %d", h.bases[1].State.Height(), h.bases[0].State.Height())
	}
	if rounds < 3 {
		t.Errorf("9 MB of blocks synced in %d batches; a frame holds 4 MiB", rounds)
	}
	if h.bases[1].Sync.Active() {
		t.Error("sync still active after the terminal batch")
	}
}
