package core

import (
	"bytes"
	"sort"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// fraudRecord remembers one observed microblock fork: two signed microblocks
// extending the same predecessor in the same epoch. Which sibling counts as
// "pruned" is decided at poison-assembly time, against the then-current main
// chain.
type fraudRecord struct {
	culprit  *chain.Node // the key block whose leader forked
	siblingA *chain.Node
	siblingB *chain.Node
}

// detectFraud inspects a newly added microblock for a same-epoch sibling
// conflict. Honest leaders extend linearly, so two microblock children of
// one parent within an epoch is proof of leader equivocation (§4.5: a leader
// "publishing different replicated-state-machine states to different
// machines").
func (n *Node) detectFraud(added *chain.Node) {
	parent := added.Parent
	culprit := added.KeyAncestor
	if culprit.Block().Kind() != types.KindKey {
		return
	}
	if _, seen := n.fraud[culprit.Hash()]; seen {
		return // one poison per cheater (§4.5)
	}
	for sib := range n.State.Store().Children(parent) {
		if sib == added || sib.Block().Kind() != types.KindMicro {
			continue
		}
		if sib.KeyAncestor != culprit {
			continue
		}
		n.fraud[culprit.Hash()] = &fraudRecord{culprit: culprit, siblingA: sib, siblingB: added}
		return
	}
}

// eligiblePoisons builds the poison transactions this node, as current
// leader at tip, may place now: the fraud is provable against the current
// main chain, the culprit's subsequent key block exists, and the culprit has
// not been poisoned already. The poisoner claims PoisonRewardFrac of the
// still-revocable coinbase value (§4.5).
func (n *Node) eligiblePoisons(tip *chain.Node) []*types.Transaction {
	if len(n.fraud) == 0 {
		return nil
	}
	// Iterate culprits in hash order: the transactions land in this
	// leader's next microblock, so their order is consensus-visible and
	// must not depend on map iteration.
	culprits := make([]crypto.Hash, 0, len(n.fraud))
	for h := range n.fraud {
		culprits = append(culprits, h)
	}
	sort.Slice(culprits, func(i, j int) bool {
		return bytes.Compare(culprits[i][:], culprits[j][:]) < 0
	})
	var out []*types.Transaction
	for _, culpritHash := range culprits {
		rec := n.fraud[culpritHash]
		coinbase := rec.culprit.Block().Transactions()[0]
		coinbaseID := coinbase.ID()
		if n.State.UTXO().Poisoned(coinbaseID) {
			delete(n.fraud, culpritHash) // someone else placed it
			continue
		}
		// Placement rule: only after the culprit's subsequent key block.
		if tip.KeyAncestor.KeyHeight <= rec.culprit.KeyHeight {
			continue
		}
		// One sibling must be on the main chain (conflict), the other off
		// it (pruned). If the fork is not visible from this chain, wait.
		conflict, pruned := rec.siblingA, rec.siblingB
		if !conflict.IsAncestorOf(tip) {
			conflict, pruned = pruned, conflict
		}
		if !conflict.IsAncestorOf(tip) || pruned.IsAncestorOf(tip) {
			continue
		}
		var revocable types.Amount
		for i := range coinbase.Outputs {
			op := types.OutPoint{TxID: coinbaseID, Index: uint32(i)}
			if e, ok := n.State.UTXO().Lookup(op); ok && !e.Revoked {
				revocable += e.Value
			}
		}
		reward := types.Amount(float64(revocable) * n.cfg.Params.PoisonRewardFrac)
		prunedMicro := pruned.Block().(*types.MicroBlock)
		out = append(out, &types.Transaction{
			Kind:    types.TxPoison,
			Outputs: []types.TxOutput{{Value: reward, To: n.cfg.Key.Public().Addr()}},
			Evidence: &types.PoisonEvidence{
				Culprit:  culpritHash,
				Pruned:   prunedMicro.Header,
				Conflict: conflict.Hash(),
			},
		})
	}
	return out
}

// KnownFrauds returns the culprit key-block hashes this node has evidence
// against (diagnostics and tests).
func (n *Node) KnownFrauds() []crypto.Hash {
	out := make([]crypto.Hash, 0, len(n.fraud))
	for h := range n.fraud {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}
