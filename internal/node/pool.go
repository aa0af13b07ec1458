package node

import (
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// TxPool is the transaction-pool interface a node's block assembly draws
// from. internal/mempool provides the general implementation; the experiment
// harness substitutes a shared-workload pool that holds one copy of the
// artificial transaction set for all thousand nodes (§7 "No Transaction
// Propagation" pre-loads identical pools everywhere).
type TxPool interface {
	// Add inserts a loose transaction (live relay and wallets).
	Add(tx *types.Transaction) error
	// Known reports whether Add would refuse txid as a duplicate (held, or
	// recently confirmed), so a relayed copy is dropped before its
	// signatures are checked.
	Known(txid crypto.Hash) bool
	// Get returns the pooled transaction with ID txid, or nil: the body
	// lookup a compact block's IDs are filled through.
	Get(txid crypto.Hash) *types.Transaction
	// Select returns transactions fitting maxBytes, in the pool's
	// deterministic order, without removing them.
	Select(maxBytes int) []*types.Transaction
	// RemoveConfirmed drops transactions confirmed by the blocks one tip
	// change connected, and anything conflicting with them. The node makes
	// one call per tip change.
	RemoveConfirmed(txs []*types.Transaction)
	// Reinsert returns transactions from a disconnected block.
	Reinsert(txs []*types.Transaction)
	// Len reports the number of pending transactions.
	Len() int
}
