package node_test

import (
	"errors"
	"testing"

	"bitcoinng/internal/mempool"
	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

// TestKnownCopySkipsSignatureCheck: on the live path every relayed copy is a
// fresh decode whose signature memo is cold. A copy of a pooled transaction
// is refused on the pool's ID probe before any signature is checked; an
// unknown one is checked and pooled.
func TestKnownCopySkipsSignatureCheck(t *testing.T) {
	h, _, key := newHarness(t, 2)
	base := h.bases[1]
	pooled := relayTx(t, key, 1)
	if err := base.SubmitTx(pooled); err != nil {
		t.Fatal(err)
	}
	decode := func(tx *types.Transaction) *types.Transaction {
		var c types.Transaction
		if err := wire.Decode(wire.Encode(tx), &c); err != nil {
			t.Fatal(err)
		}
		return &c
	}
	// A signature broken after the handler ran is caught only while the memo
	// is cold: a verdict recorded by the handler would vouch for it.
	sigChecked := func(tx *types.Transaction) bool {
		tx.Inputs[0].Sig[0] ^= 0xff
		return tx.CheckWellFormed() == nil
	}

	dup := decode(pooled)
	base.HandleMessage(0, &node.TxMsg{Tx: dup})
	if base.Pool.Len() != 1 {
		t.Fatalf("pool holds %d after a duplicate, want 1", base.Pool.Len())
	}
	if sigChecked(dup) {
		t.Error("a copy of a pooled transaction had its signatures checked before it was refused")
	}

	fresh := decode(relayTx(t, key, 2))
	base.HandleMessage(0, &node.TxMsg{Tx: fresh})
	if base.Pool.Len() != 2 {
		t.Fatalf("pool holds %d after a new transaction, want 2", base.Pool.Len())
	}
	if !sigChecked(fresh) {
		t.Error("a new transaction was pooled without its signatures checked")
	}
}

// recordingPool counts the pool's RemoveConfirmed calls.
type recordingPool struct {
	node.TxPool
	calls [][]*types.Transaction
}

func (p *recordingPool) RemoveConfirmed(txs []*types.Transaction) {
	p.calls = append(p.calls, append([]*types.Transaction(nil), txs...))
	p.TxPool.RemoveConfirmed(txs)
}

// TestOneRemoveConfirmedPerTipChange: a tip change that connects several
// blocks at once (here an orphan cascade) reaches the pool as one call, the
// blocks' transactions in chain order, so it ages the pool's tombstones by
// one generation, not one per block.
func TestOneRemoveConfirmedPerTipChange(t *testing.T) {
	h, genesis, key := newHarness(t, 1)
	b1 := mineOn(t, key, genesis.Hash(), 1)
	b2 := mineOn(t, key, b1.Hash(), 2)
	b3 := mineOn(t, key, b2.Hash(), 3)
	base := h.bases[0]
	pool := &recordingPool{TxPool: base.Pool}
	base.Pool = pool

	base.ProcessBlock(b3, -1)
	base.ProcessBlock(b2, -1)
	if len(pool.calls) != 0 {
		t.Fatalf("orphans reached the pool: %d calls", len(pool.calls))
	}
	if res := base.ProcessBlock(b1, -1); len(res.Connected) != 3 {
		t.Fatalf("the cascade connected %d blocks, want 3", len(res.Connected))
	}
	if len(pool.calls) != 1 {
		t.Fatalf("one tip change made %d RemoveConfirmed calls, want 1", len(pool.calls))
	}
	got := pool.calls[0]
	want := []*types.Transaction{b1.Txs[0], b2.Txs[0], b3.Txs[0]}
	if len(got) != len(want) {
		t.Fatalf("the call carried %d transactions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transaction %d out of chain order", i)
		}
	}
}

// TestOwnPoolIsBuiltOnlyWhereUsed: a node's own mempool is built by the
// first call that needs it, with the limits its wiring set, and then serves
// as the node's Pool directly; a node whose wiring replaces the pool, as an
// experiment's workload view does, never builds one.
func TestOwnPoolIsBuiltOnlyWhereUsed(t *testing.T) {
	h, genesis, key := newHarness(t, 2)
	used, replaced := h.bases[0], h.bases[1]
	if used.OwnPoolBuilt() || replaced.OwnPoolBuilt() {
		t.Fatal("a pool was built before any use")
	}
	limited, ok := used.Pool.(interface{ SetLimits(mempool.Limits) })
	if !ok {
		t.Fatal("the node's own pool takes no limits")
	}
	limited.SetLimits(mempool.Limits{MaxTxs: 1})
	if used.OwnPoolBuilt() {
		t.Fatal("setting limits built the pool")
	}
	if err := used.SubmitTx(relayTx(t, key, 1)); err != nil {
		t.Fatal(err)
	}
	if err := used.SubmitTx(relayTx(t, key, 2)); !errors.Is(err, mempool.ErrPoolFull) {
		t.Fatalf("second transaction over a one-transaction limit: %v, want ErrPoolFull", err)
	}
	if _, ok := used.Pool.(*mempool.Pool); !ok || !used.OwnPoolBuilt() {
		t.Fatalf("after first use the node's Pool is %T, want the built *mempool.Pool", used.Pool)
	}

	replaced.Pool = mempool.New()
	replaced.ProcessBlock(mineOn(t, key, genesis.Hash(), 1), -1)
	if err := replaced.SubmitTx(relayTx(t, key, 3)); err != nil {
		t.Fatal(err)
	}
	if replaced.OwnPoolBuilt() {
		t.Fatal("a node whose pool was replaced built its own")
	}
}
