// Package core implements Bitcoin-NG (§4 of the paper), the repository's
// primary contribution: leader election through proof-of-work key blocks,
// transaction serialization through signed microblocks issued by the current
// leader, the 40%/60% fee split between consecutive leaders, key-block-only
// chain weight, and poison transactions that revoke the revenue of leaders
// who fork their own microblock chain.
package core

import (
	"errors"
	"fmt"
	"time"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// Rule violations; a key block's header rules are chain's, and so are their
// violations.
var (
	ErrWrongBlockKind = errors.New("core: pow blocks are not part of bitcoin-ng")
	ErrNoEpoch        = errors.New("core: microblock without a key-block epoch")
	ErrMicroTooSoon   = errors.New("core: microblock violates minimum interval")
	ErrMicroTooBig    = errors.New("core: microblock exceeds maximum size")
	ErrBadCoinbaseAmt = errors.New("core: coinbase exceeds subsidy plus epoch fees")
	ErrFeeSplitShort  = errors.New("core: previous leader paid less than the fee split")
	ErrBadEvidence    = errors.New("core: poison evidence does not prove a fork")
	ErrPoisonTooSoon  = errors.New("core: poison before the culprit's subsequent key block")
)

// Rules implements chain.Protocol for Bitcoin-NG.
type Rules struct {
	// AllowSimulatedPoW accepts scheduler-generated key blocks (the
	// experiments' regtest mode); live deployments require real PoW.
	AllowSimulatedPoW bool
}

// RulesID implements chain.Protocol. Behavioural node flags that do not
// change validation (censorship, equivocation) deliberately stay out of the
// identifier: a censoring node judges blocks exactly like an honest one, so
// sharing verdicts between them is sound.
func (r Rules) RulesID() string {
	return fmt.Sprintf("bitcoin-ng/simpow=%t", r.AllowSimulatedPoW)
}

// CheckBlock implements chain.Protocol.
func (r Rules) CheckBlock(st *chain.State, parent *chain.Node, b types.Block, now int64) error {
	switch blk := b.(type) {
	case *types.KeyBlock:
		return chain.CheckPowHeader(st, parent, blk, r.AllowSimulatedPoW, now, blk.CheckWellFormed)
	case *types.MicroBlock:
		return r.checkMicroBlock(st, parent, blk, now)
	default:
		return fmt.Errorf("%w: got %v", ErrWrongBlockKind, b.Kind())
	}
}

func (r Rules) checkMicroBlock(st *chain.State, parent *chain.Node, b *types.MicroBlock, now int64) error {
	// The signing key is the public key in the epoch's key block (§4.2).
	// The genesis PoW block has no leader key, so no microblock may extend
	// it before the first key block.
	key, ok := parent.KeyAncestor.Block().(*types.KeyBlock)
	if !ok {
		return ErrNoEpoch
	}
	if err := b.CheckWellFormed(key.Header.LeaderKey); err != nil {
		return err
	}
	if b.WireSize() > st.Params().MaxBlockSize {
		return fmt.Errorf("%w: %d > %d", ErrMicroTooBig, b.WireSize(), st.Params().MaxBlockSize)
	}
	// §4.2: "if the timestamp of a microblock is in the future, or if its
	// difference with its predecessor's timestamp is smaller than the
	// minimum, then the microblock is invalid" — the rate cap that stops a
	// leader from swamping the system.
	if b.Header.TimeNanos > now+int64(chain.MaxFutureSkew) {
		return chain.ErrTimeTooNew
	}
	if gap := b.Header.TimeNanos - parent.Block().Time(); gap < int64(st.Params().MinMicroblockInterval) {
		return fmt.Errorf("%w: gap %v < %v", ErrMicroTooSoon,
			time.Duration(gap), st.Params().MinMicroblockInterval)
	}
	return nil
}

// ConnectCheck implements chain.Protocol. For key blocks it enforces the
// remuneration scheme of §4.4: the coinbase mints at most the subsidy plus
// the previous epoch's microblock fees, of which the previous leader must
// receive at least the LeaderFeeFrac share (40%).
func (r Rules) ConnectCheck(st *chain.State, n *chain.Node, fees []types.Amount) error {
	if n.Block().Kind() != types.KindKey {
		return nil // microblock fees are recorded by the chain layer
	}
	params := st.Params()
	if err := chain.CheckCoinbaseHeight(n); err != nil {
		return err
	}
	coinbase := n.Block().Transactions()[0]
	epochFees := st.EpochFeesAt(n.Parent)
	if max := params.Subsidy + epochFees; coinbase.OutputSum() > max {
		return fmt.Errorf("%w: %d > %d", ErrBadCoinbaseAmt, coinbase.OutputSum(), max)
	}
	leaderShare, _ := params.SplitFee(epochFees)
	if leaderShare > 0 {
		prevLeader, ok := prevLeaderAddress(n.Parent)
		if ok {
			var paid types.Amount
			for i := range coinbase.Outputs {
				if coinbase.Outputs[i].To == prevLeader {
					paid += coinbase.Outputs[i].Value
				}
			}
			if paid < leaderShare {
				return fmt.Errorf("%w: paid %d, owes %d", ErrFeeSplitShort, paid, leaderShare)
			}
		}
	}
	return nil
}

// prevLeaderAddress returns where the previous epoch's leader collects: the
// first coinbase output of the previous key block.
func prevLeaderAddress(parent *chain.Node) (crypto.Address, bool) {
	prev := parent.KeyAncestor
	cb := prev.Block().Transactions()[0]
	if len(cb.Outputs) == 0 {
		return crypto.Address{}, false
	}
	return cb.Outputs[0].To, true
}

// PoisonTargets implements chain.Protocol: each poison transaction must
// carry a fraud proof (§4.5) — a microblock header signed by the culprit
// leader that conflicts with a main-chain microblock (same predecessor,
// different block) — and may only appear after the culprit's subsequent key
// block. The returned map directs the UTXO layer to revoke the culprit's
// coinbase.
func (r Rules) PoisonTargets(st *chain.State, parent *chain.Node, b types.Block) (map[crypto.Hash]crypto.Hash, error) {
	var targets map[crypto.Hash]crypto.Hash
	for _, tx := range b.Transactions() {
		if tx.Kind != types.TxPoison {
			continue
		}
		ev := tx.Evidence
		// The referenced culprit key block and on-chain conflict microblock
		// must sit in the connecting block's own ancestry, in one epoch.
		// Every resolution failure collapses into the one ErrBadEvidence so
		// the verdict — including its error — is a pure function of the
		// ancestor chain: whether an unrelated side-branch block happens to
		// be in this node's store must not show through (the connect cache
		// shares the error object across nodes).
		culprit, okC := st.Store().Get(ev.Culprit)
		conflict, okF := st.Store().Get(ev.Conflict)
		if !okC || culprit.Block().Kind() != types.KindKey ||
			!okF || conflict.Block().Kind() != types.KindMicro ||
			conflict.KeyAncestor != culprit || !conflict.IsAncestorOf(parent) {
			return nil, fmt.Errorf("%w: conflict not in the culprit's epoch on this chain", ErrBadEvidence)
		}
		// The pruned half must be a *different* microblock with the same
		// predecessor, signed by the culprit's leader key: two signed
		// successors of one block is the fork proof.
		if ev.Pruned.Prev != conflict.Block().PrevHash() || ev.Pruned.Hash() == conflict.Hash() {
			return nil, fmt.Errorf("%w: headers do not conflict", ErrBadEvidence)
		}
		leaderKey := culprit.Block().(*types.KeyBlock).Header.LeaderKey
		if !ev.Pruned.VerifySignature(leaderKey) {
			return nil, fmt.Errorf("%w: pruned header not signed by culprit", ErrBadEvidence)
		}
		// "The poison transaction has to be placed after the subsequent
		// key block" (§4.5).
		if parent.KeyAncestor.KeyHeight <= culprit.KeyHeight {
			return nil, ErrPoisonTooSoon
		}
		if targets == nil {
			targets = make(map[crypto.Hash]crypto.Hash)
		}
		targets[tx.ID()] = culprit.Block().Transactions()[0].ID()
	}
	return targets, nil
}
