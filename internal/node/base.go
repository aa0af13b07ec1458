package node

import (
	"fmt"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/mempool"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

// Base is the protocol-independent core of a node: chain state, mempool,
// relay, and metrics wiring. internal/bitcoin and internal/core embed it and
// add block production.
// BlockArchive is the durable-persistence hook: every block accepted into the
// tree is appended — with its local arrival time, which the first-seen
// tie-break consumes on replay — before it is relayed, so a crashed node can
// be rebuilt from its archive's prefix with the same tie-break inputs. The
// chain-index backends in internal/store implement it (in-memory for the
// default sim path, file-backed for cluster/ngnode).
type BlockArchive interface {
	Append(b types.Block, receivedAt int64) error
}

type Base struct {
	Env      Env
	State    *chain.State
	Pool     TxPool
	Gossip   *Gossip
	Sync     *Syncer
	Recorder Recorder

	// Persist, if set, receives every block accepted into the tree (before
	// relay). A persistence error is deliberately non-fatal to the node —
	// consensus must not stall on a full disk — but the block is then simply
	// not durable and a crash loses it, exactly like the operational client.
	Persist BlockArchive

	// OnTipChange, if set, runs after the main chain moves and the mempool
	// is updated. Bitcoin-NG uses it to start or stop microblock
	// production as leadership changes.
	OnTipChange func(res *chain.AddResult)

	// ProcessFn is the block-ingest entry point used by the gossip layer.
	// It defaults to ProcessBlock; protocols that wrap ingestion (e.g.
	// Bitcoin-NG's fraud detection) replace it with their own method.
	ProcessFn func(blk types.Block, from int) *chain.AddResult

	// RelayTxs enables loose-transaction relay (live nodes); experiments
	// leave it false per the paper's methodology (§7).
	RelayTxs bool
}

// NewBase wires the core. The caller supplies the chain state (built with
// its protocol's rules and fork choice).
func NewBase(env Env, st *chain.State, rec Recorder) *Base {
	if rec == nil {
		rec = NopRecorder{}
	}
	pool := mempool.New()
	// Resolve input values against the confirmed UTXO set so the pool can
	// fee-prioritize and make bounded-admission decisions. Unresolvable
	// inputs (unconfirmed parents outside the pool) degrade the rate to
	// zero rather than failing admission.
	pool.SetFeeResolver(func(op types.OutPoint) (types.Amount, bool) {
		e, ok := st.UTXO().Lookup(op)
		return e.Value, ok
	})
	b := &Base{
		Env:      env,
		State:    st,
		Pool:     pool,
		Recorder: rec,
	}
	b.Gossip = NewGossip(env, b)
	b.Sync = newSyncer(env, b)
	b.ProcessFn = b.ProcessBlock
	return b
}

// HandleMessage is the node's network entry point.
func (b *Base) HandleMessage(from int, msg Message) {
	b.Gossip.HandleMessage(from, msg)
}

// SubmitOwnBlock records and processes a self-generated block, then relays
// it. It returns the chain's verdict (always StatusMainChain for honest
// production, since nodes mine on their own tip).
func (b *Base) SubmitOwnBlock(blk types.Block) *chain.AddResult {
	b.Recorder.BlockGenerated(b.Env.NodeID(), b.Env.Now(), InfoFor(blk, b.Env.NodeID()))
	return b.ProcessFn(blk, -1)
}

// SubmitOwnBlockQuiet records and processes a self-generated block WITHOUT
// announcing it to peers — the strategy layer's withholding path. The block
// enters the local tree (the node mines on it) and stays fetchable by hash;
// a later Gossip.Announce releases it.
func (b *Base) SubmitOwnBlockQuiet(blk types.Block) *chain.AddResult {
	b.Recorder.BlockGenerated(b.Env.NodeID(), b.Env.Now(), InfoFor(blk, b.Env.NodeID()))
	return b.processBlock(blk, -1, false)
}

// ProcessBlock validates, stores, relays, and accounts a block received from
// peer `from` (-1 for self).
func (b *Base) ProcessBlock(blk types.Block, from int) *chain.AddResult {
	return b.processBlock(blk, from, true)
}

func (b *Base) processBlock(blk types.Block, from int, relay bool) *chain.AddResult {
	now := b.Env.Now()
	res, err := b.State.AddBlock(blk, now)
	if err != nil {
		// Invalid blocks are dropped silently: the sender may be
		// malicious, and Bitcoin's client likewise just rejects.
		return res
	}
	switch res.Status {
	case chain.StatusDuplicate:
		return res
	case chain.StatusOrphan:
		// Chase the missing parent from whoever sent the child. The inv
		// type tag is advisory; lookups are by hash.
		if from >= 0 {
			b.Gossip.RequestBlock(Inv{Type: wire.MsgBlock, Hash: blk.PrevHash()}, from)
		}
		return res
	}

	// Persist, account, and relay every block that entered the tree (in that
	// order: a block must be durable before the node vouches for it to
	// peers; withheld blocks skip only the relay).
	for _, n := range res.Added {
		if b.Persist != nil {
			_ = b.Persist.Append(n.Block(), n.ReceivedAt) // non-fatal: see Persist docs
		}
		b.Recorder.BlockAccepted(b.Env.NodeID(), now, n.Hash())
		if relay {
			b.Gossip.Announce(n.Block(), from)
		}
	}

	if res.TipChanged() {
		for _, n := range res.Disconnected {
			b.Pool.Reinsert(n.Block().Transactions())
		}
		for _, n := range res.Connected {
			b.Pool.RemoveConfirmed(n.Block().Transactions())
		}
		b.Recorder.TipChanged(b.Env.NodeID(), now, b.State.Tip().Hash(),
			ids(res.Connected), ids(res.Disconnected))
		if b.OnTipChange != nil {
			b.OnTipChange(res)
		}
	}
	return res
}

// handleTx pools and optionally relays a loose transaction.
func (b *Base) handleTx(from int, tx *types.Transaction) {
	if tx == nil {
		return // malformed relay; never let a byzantine peer panic the node
	}
	if err := tx.CheckWellFormed(); err != nil {
		return
	}
	if err := b.Pool.Add(tx); err != nil {
		return // duplicate or conflicting
	}
	if !b.RelayTxs {
		return
	}
	b.Gossip.RelayTx(tx, from)
}

// SubmitTx inserts a locally created transaction (wallet path) and relays it
// when RelayTxs is on. This is the boundary where a pool refusal meets a
// person, so the transaction id is added here, once, rather than by the pool
// on every relayed duplicate.
func (b *Base) SubmitTx(tx *types.Transaction) error {
	if err := tx.CheckWellFormed(); err != nil {
		return err
	}
	if err := b.Pool.Add(tx); err != nil {
		return fmt.Errorf("tx %s: %w", tx.ID().Short(), err)
	}
	if b.RelayTxs {
		b.Gossip.RelayTx(tx, -1)
	}
	return nil
}

func ids(nodes []*chain.Node) []BlockID {
	out := make([]BlockID, len(nodes))
	for i, n := range nodes {
		out[i] = n.Hash()
	}
	return out
}
