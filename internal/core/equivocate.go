package core

import (
	"fmt"

	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
)

// Equivocate makes this node — which must currently lead — sign two
// conflicting microblocks on its tip, each carrying one of the transactions:
// the split-brain double-spend of §4.5. The blocks are returned unpublished;
// the caller delivers them to disjoint parts of the network, as a targeted
// attacker would. Both are reported to the Recorder as generated here, like
// any block this node produces. Honest nodes that see both detect the fraud
// and poison this leader once they lead.
func (n *Node) Equivocate(txA, txB *types.Transaction) (*types.MicroBlock, *types.MicroBlock, error) {
	if !n.IsLeader() {
		return nil, nil, fmt.Errorf("core: node is not the current leader")
	}
	tip := n.State.Tip()
	now := n.Env.Now()
	minGap := int64(n.cfg.Params.MinMicroblockInterval)
	build := func(tx *types.Transaction, extraNanos int64) *types.MicroBlock {
		var txs []*types.Transaction
		if tx != nil {
			txs = []*types.Transaction{tx}
		}
		mb := &types.MicroBlock{
			Header: types.MicroBlockHeader{
				Prev:      tip.Hash(),
				TxRoot:    types.TxRoot(txs),
				TimeNanos: now + minGap + extraNanos,
			},
			Txs: txs,
		}
		mb.Header.Sign(n.cfg.Key)
		return mb
	}
	// Distinct timestamps give the siblings distinct hashes even when both
	// carry the same (or no) transactions.
	mbA, mbB := build(txA, 0), build(txB, 1)
	id := n.Env.NodeID()
	n.Recorder.BlockGenerated(id, now, node.InfoFor(mbA, id))
	n.Recorder.BlockGenerated(id, now, node.InfoFor(mbB, id))
	return mbA, mbB, nil
}
