// Package bitcoin implements the baseline Bitcoin protocol the paper
// compares against (§3): proof-of-work blocks on a heaviest-chain rule,
// block-filling from the mempool, and coinbase economics. The node runs
// unchanged on the simulator and on real TCP, with mining supplied either by
// the exponential scheduler (§7 "Simulated Mining") or by a real hash loop.
package bitcoin

import (
	"errors"
	"fmt"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// Rule violations; the header rules' violations are chain's.
var (
	ErrWrongBlockKind  = errors.New("bitcoin: only pow blocks are valid")
	ErrBadCoinbaseAmt  = errors.New("bitcoin: coinbase exceeds subsidy plus fees")
	ErrPoisonInBitcoin = errors.New("bitcoin: poison transactions are not part of this protocol")
)

// Rules implements chain.Protocol for Bitcoin.
type Rules struct {
	// AllowSimulatedPoW accepts scheduler-generated blocks (regtest mode);
	// live deployments leave it false and require real proofs of work.
	AllowSimulatedPoW bool
}

// RulesID implements chain.Protocol. GHOST shares these rules (it differs
// only in fork choice, which is per-node state), so its nodes share the
// same connect-cache universe — soundly, since their connect verdicts agree.
func (r Rules) RulesID() string {
	return fmt.Sprintf("bitcoin/simpow=%t", r.AllowSimulatedPoW)
}

// CheckBlock implements chain.Protocol.
func (r Rules) CheckBlock(st *chain.State, parent *chain.Node, b types.Block, now int64) error {
	pb, ok := b.(*types.PowBlock)
	if !ok {
		return fmt.Errorf("%w: got %v", ErrWrongBlockKind, b.Kind())
	}
	return chain.CheckPowHeader(st, parent, pb, r.AllowSimulatedPoW, now, func() error {
		if err := pb.CheckWellFormed(); err != nil {
			return err
		}
		for i, tx := range pb.Txs {
			if tx.Kind == types.TxPoison {
				return fmt.Errorf("%w: tx %d", ErrPoisonInBitcoin, i)
			}
		}
		return nil
	})
}

// ConnectCheck implements chain.Protocol: the coinbase may claim at most the
// subsidy plus this block's fees and must commit to its height.
func (r Rules) ConnectCheck(st *chain.State, n *chain.Node, fees []types.Amount) error {
	var total types.Amount
	for _, f := range fees {
		total += f
	}
	if err := chain.CheckCoinbaseHeight(n); err != nil {
		return err
	}
	coinbase := n.Block().Transactions()[0]
	if max := st.Params().Subsidy + total; coinbase.OutputSum() > max {
		return fmt.Errorf("%w: %d > %d", ErrBadCoinbaseAmt, coinbase.OutputSum(), max)
	}
	return nil
}

// PoisonTargets implements chain.Protocol: Bitcoin has no poison
// transactions; CheckBlock already rejected them, so any sighting here is a
// programming error surfaced as a validation failure.
func (r Rules) PoisonTargets(st *chain.State, parent *chain.Node, b types.Block) (map[crypto.Hash]crypto.Hash, error) {
	for _, tx := range b.Transactions() {
		if tx.Kind == types.TxPoison {
			return nil, ErrPoisonInBitcoin
		}
	}
	return nil, nil
}
