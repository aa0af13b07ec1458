package bitcoin

import (
	"fmt"

	"bitcoinng/internal/blockstore"
	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
	"bitcoinng/internal/validate"
)

// coinbaseReserve is the block-size headroom kept for the header and
// coinbase when filling a block from the mempool (header ≈ 90 B, one-output
// coinbase ≈ 60 B).
const coinbaseReserve = 160

// Config configures a Bitcoin node.
type Config struct {
	// Params are the consensus parameters (block size cap, subsidy,
	// maturity, retarget schedule, tie-break rule).
	Params types.Params
	// Key receives this node's coinbase rewards.
	Key *crypto.PrivateKey
	// Genesis is the shared genesis block.
	Genesis *types.PowBlock
	// Recorder receives metric events; nil discards them.
	Recorder node.Recorder
	// SimulatedMining marks blocks as scheduler-generated and accepts such
	// blocks from peers (the experiments' regtest mode). Live nodes leave
	// it false and grind real nonces.
	SimulatedMining bool
	// ForkChoice overrides the fork-choice rule; nil selects the heaviest
	// chain. internal/ghost substitutes the heaviest-subtree rule (§9).
	ForkChoice chain.ForkChoice
	// ConnectCache, when set, shares memoized connect verdicts (UTXO
	// deltas, fees) with every other node whose rules fingerprint matches;
	// nil validates everything locally.
	ConnectCache *validate.Cache
	// Blocks, when set, names the node's blocks in a table shared with the
	// other nodes of a simulated fleet (chain.WithBlockTable); nil keeps a
	// private one.
	Blocks *blockstore.Table
}

// Node is a Bitcoin protocol node.
type Node struct {
	*node.Base
	cfg    Config
	filter SpendFilter
}

// New builds a Bitcoin node on env. It produces a block each time MineBlock
// is called: by the harness's miner for this node, or directly by a test.
func New(env node.Env, cfg Config) (*Node, error) {
	if cfg.Key == nil {
		return nil, fmt.Errorf("bitcoin: config needs a key")
	}
	choice := cfg.ForkChoice
	if choice == nil {
		choice = &chain.HeaviestChain{RandomTieBreak: cfg.Params.RandomTieBreak, Rand: env.Rand()}
	}
	st, err := chain.New(cfg.Genesis, cfg.Params, Rules{AllowSimulatedPoW: cfg.SimulatedMining}, choice,
		chain.WithConnectCache(cfg.ConnectCache), chain.WithBlockTable(cfg.Blocks))
	if err != nil {
		return nil, err
	}
	n := &Node{
		Base: node.NewBase(env, st, cfg.Recorder),
		cfg:  cfg,
	}
	return n, nil
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
