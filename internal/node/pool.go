package node

import (
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/mempool"
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

// ownPool stands in as the pool a node keeps unless its wiring hands it
// another (an experiment's workload view): its first use builds a
// fee-resolving mempool.Pool and, while it is still the node's Pool, puts
// the mempool there, so a node whose pool is replaced never builds one and
// every later call goes to the mempool directly. It lives inside Base, so
// an unused one costs no allocation of its own.
type ownPool struct {
	base   *Base
	p      *mempool.Pool
	limits mempool.Limits
}

// pool builds the mempool on first use. It resolves input values against
// the confirmed UTXO set so the pool can fee-prioritize and make bounded
// admission decisions; unresolvable inputs (unconfirmed parents outside the
// pool) degrade the rate to zero rather than failing admission.
func (o *ownPool) pool() *mempool.Pool {
	if o.p == nil {
		st := o.base.State
		o.p = mempool.New()
		o.p.SetLimits(o.limits)
		o.p.SetFeeResolver(func(op types.OutPoint) (types.Amount, bool) {
			e, ok := st.UTXO().Lookup(op)
			return e.Value, ok
		})
	}
	if o.base.Pool == TxPool(o) {
		o.base.Pool = o.p
	}
	return o.p
}

// SetLimits bounds the pool, as mempool.Pool.SetLimits does.
func (o *ownPool) SetLimits(l mempool.Limits) {
	o.limits = l
	if o.p != nil {
		o.p.SetLimits(l)
	}
}

func (o *ownPool) Add(tx *types.Transaction) error { return o.pool().Add(tx) }

func (o *ownPool) Known(txid crypto.Hash) bool { return o.pool().Known(txid) }

func (o *ownPool) Get(txid crypto.Hash) *types.Transaction { return o.pool().Get(txid) }

func (o *ownPool) Select(maxBytes int) []*types.Transaction { return o.pool().Select(maxBytes) }

func (o *ownPool) RemoveConfirmed(txs []*types.Transaction) { o.pool().RemoveConfirmed(txs) }

func (o *ownPool) Reinsert(txs []*types.Transaction) { o.pool().Reinsert(txs) }

func (o *ownPool) Len() int { return o.pool().Len() }
