package bitcoin

import (
	"fmt"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/node"
	"bitcoinng/internal/strategy"
	"bitcoinng/internal/types"
)

// coinbaseReserve is the block-size headroom kept for the header and
// coinbase when filling a block from the mempool (header ≈ 90 B, one-output
// coinbase ≈ 60 B).
const coinbaseReserve = 160

// Node is a Bitcoin protocol node.
type Node struct {
	*node.Base
	cfg    node.Config
	filter SpendFilter
}

// New builds a Bitcoin node on env under the fork-choice rule choice (nil
// selects the heaviest chain; internal/ghost passes the heaviest-subtree
// rule, §9). It produces a block each time MineBlock is called: by the
// harness's miner for this node, or directly by a test. Censorship and
// mining strategies are Bitcoin-NG behaviours, so New refuses a config that
// asks for either; an honest strategy asks for nothing.
func New(env node.Env, cfg node.Config, choice chain.ForkChoice) (*Node, error) {
	if cfg.CensorTransactions {
		return nil, fmt.Errorf("bitcoin: client cannot censor transactions")
	}
	if cfg.Strategy != nil && cfg.Strategy.Name() != strategy.HonestName {
		return nil, fmt.Errorf("bitcoin: client cannot run mining strategy %q", cfg.Strategy.Name())
	}
	base, err := node.New(env, cfg, Rules{AllowSimulatedPoW: cfg.SimulatedMining}, choice)
	if err != nil {
		return nil, err
	}
	return &Node{Base: base, cfg: cfg}, nil
}

// MineBlock assembles a block on the current tip and submits it, returning
// the block. It is the scheduler's onFind callback and is also called
// directly by tests.
func (n *Node) MineBlock() *types.PowBlock {
	b := n.AssembleBlock()
	n.SubmitOwnBlock(b)
	return b
}

// AssembleBlock builds (without submitting) the next block: mempool
// transactions up to the size cap, a coinbase claiming subsidy plus fees,
// and the scheduled difficulty target.
func (n *Node) AssembleBlock() *types.PowBlock {
	tip := n.State.Tip()
	params := n.cfg.Params
	candidates := n.Pool.Select(params.MaxBlockSize - coinbaseReserve)
	txs, fees := n.filter.Filter(n.State, candidates, tip.KeyHeight+1)

	coinbase := &types.Transaction{
		Kind:    types.TxCoinbase,
		Outputs: []types.TxOutput{{Value: params.Subsidy + fees, To: n.cfg.Key.Public().Addr()}},
		Height:  tip.KeyHeight + 1,
	}
	all := append([]*types.Transaction{coinbase}, txs...)

	target := chain.NextTarget(tip, params)
	b := &types.PowBlock{
		Header: types.PowHeader{
			Prev:       tip.Hash(),
			MerkleRoot: types.TxRoot(all),
			TimeNanos:  n.Env.Now(),
			Target:     target,
		},
		Txs:          all,
		SimulatedPoW: n.cfg.SimulatedMining,
	}
	return b
}

// SpendFilter drops candidate transactions a block built at a given key
// height could not connect: inputs missing from the UTXO set, revoked, owned
// by someone else, immature coinbases, or value overflows. It tracks
// intra-block spends so chained candidates survive. Its two scratch maps are
// kept between calls, so a node that assembles a block every interval
// reuses their memory; each node owns its filter, because leaders on
// different shards assemble at the same time. Bitcoin-NG microblock
// assembly (internal/core) uses it too.
type SpendFilter struct {
	produced map[types.OutPoint]types.Amount
	consumed map[types.OutPoint]struct{}
}

// Filter returns the spendable candidates, in order, and their total fees.
// The result reuses candidates' array, whose contents it overwrites.
func (f *SpendFilter) Filter(st *chain.State, candidates []*types.Transaction, atKeyHeight uint64) ([]*types.Transaction, types.Amount) {
	if f.produced == nil {
		f.produced = make(map[types.OutPoint]types.Amount)
		f.consumed = make(map[types.OutPoint]struct{})
	}
	clear(f.produced)
	clear(f.consumed)
	out := candidates[:0]
	var fees types.Amount
	maturity := uint64(st.Params().CoinbaseMaturity)
	for _, tx := range candidates {
		var in types.Amount
		ok := true
		for i := range tx.Inputs {
			op := tx.Inputs[i].Prev
			if _, spent := f.consumed[op]; spent {
				ok = false
				break
			}
			if v, hit := f.produced[op]; hit {
				in += v
				continue
			}
			e, hit := st.UTXO().Lookup(op)
			if !hit || e.Revoked || e.To != tx.InputAddr(i) {
				ok = false
				break
			}
			if e.Coinbase && atKeyHeight-e.Height < maturity {
				ok = false
				break
			}
			in += e.Value
		}
		if !ok || tx.OutputSum() > in {
			continue
		}
		for i := range tx.Inputs {
			f.consumed[tx.Inputs[i].Prev] = struct{}{}
		}
		for i := range tx.Outputs {
			f.produced[types.OutPoint{TxID: tx.ID(), Index: uint32(i)}] = tx.Outputs[i].Value
		}
		out = append(out, tx)
		fees += in - tx.OutputSum()
	}
	return out, fees
}
