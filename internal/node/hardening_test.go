package node_test

import (
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
)

// TestMalformedMessagesDropped feeds the gossip dispatcher every class of
// malformed message a byzantine peer can produce on the simulated path — nil
// payloads, oversized item lists, bogus locators and batches, compact blocks
// and transaction replies nobody asked for, transaction requests naming no
// transaction — and asserts the node neither panics nor responds nor mutates
// chain state. The live TCP path has the mirror-image test in internal/p2p
// (there a malformed frame additionally drops the connection).
func TestMalformedMessagesDropped(t *testing.T) {
	h, genesis, key := newHarness(t, 2)
	base := h.bases[1]
	tipBefore := base.State.Tip().Hash()

	malformed := []node.Message{
		&node.BlockMsg{Block: nil},
		&node.TxMsg{Tx: nil},
		&node.TxBatchMsg{Txs: []*types.Transaction{nil, nil}},
		&node.InvMsg{Items: make([]node.Inv, 4096)},            // over maxInvItems
		&node.GetDataMsg{Items: make([]node.Inv, 4096)},        // over maxInvItems
		&node.GetBlocksMsg{},                                   // empty locator
		&node.GetBlocksMsg{Locator: make([]node.BlockID, 256)}, // oversized locator
		&node.BlockBatchMsg{Blocks: []types.Block{nil}},
		&node.BlockBatchMsg{Blocks: make([]types.Block, 1024)}, // over maxSyncBatch
		&node.CompactBlockMsg{Block: nil},
		&node.CompactBlockMsg{Block: &types.MicroBlock{Txs: []*types.Transaction{nil}}}, // unrequested, with a hole
		&node.CompactBlockMsg{Block: &types.MicroBlock{}, IDs: make([]crypto.Hash, 3)},  // more IDs than slots
		&node.GetBlockTxnMsg{Hash: genesis.Hash()},                                      // names nothing
		&node.GetBlockTxnMsg{Hash: genesis.Hash(), Indexes: []uint32{1}},                // past the last transaction
		&node.GetBlockTxnMsg{Hash: genesis.Hash(), Indexes: []uint32{0, 0}},             // not ascending
		&node.GetBlockTxnMsg{Hash: crypto.Hash{1}, Indexes: []uint32{0}},                // unknown block
		&node.BlockTxnMsg{Txs: []*types.Transaction{nil}},                               // unrequested
	}
	for _, msg := range malformed {
		base.HandleMessage(0, msg) // must not panic
	}
	if len(h.envs[1].queue) != 0 {
		t.Errorf("node replied to malformed input: %d messages queued", len(h.envs[1].queue))
	}
	if base.State.Tip().Hash() != tipBefore {
		t.Error("malformed input moved the tip")
	}
	if got := base.Gossip.PendingFetches(); got != 0 {
		t.Errorf("malformed input armed %d fetches", got)
	}
	if base.Pool.Len() != 0 {
		t.Error("malformed input pooled a transaction")
	}

	// The node is still fully functional afterwards: a legitimate block
	// relays normally.
	b1 := mineOn(t, key, genesis.Hash(), 1)
	h.bases[0].SubmitOwnBlock(b1)
	h.drain()
	if !base.State.HasBlock(b1.Hash()) {
		t.Error("node stopped relaying after malformed input")
	}
}
