package core

import (
	"bitcoinng/internal/bitcoin"
	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/strategy"
	"bitcoinng/internal/types"
)

// microReserve is the microblock-size headroom for the signed header
// (microblocks carry no coinbase).
const microReserve = 128

// Config is node.Config under the name the benchmark module still builds
// it by (benchmark/livesync.go); every other caller uses node.Config.
type Config = node.Config

// Node is a Bitcoin-NG protocol node. Beyond the shared Base it tracks
// leadership: when the main chain's latest key block is its own, it issues
// signed microblocks at the configured rate until deposed (§4.2).
type Node struct {
	*node.Base
	cfg    node.Config
	strat  strategy.Strategy
	filter bitcoin.SpendFilter

	microTimer node.Timer
	// leading reports whether the microblock production loop is armed.
	leading bool
	// fraud accumulates detected microblock forks by culprit key block,
	// to be poisoned once this node leads (§4.5).
	fraud map[crypto.Hash]*fraudRecord
	// microMined counts microblocks this node produced.
	microMined uint64
}

// New builds a Bitcoin-NG node on env.
func New(env node.Env, cfg node.Config) (*Node, error) {
	base, err := node.New(env, cfg, Rules{AllowSimulatedPoW: cfg.SimulatedMining}, nil)
	if err != nil {
		return nil, err
	}
	strat := cfg.Strategy
	if strat == nil {
		strat = strategy.Honest{}
	}
	n := &Node{
		Base:  base,
		cfg:   cfg,
		strat: strat,
		fraud: make(map[crypto.Hash]*fraudRecord),
	}
	n.Base.OnTipChange = n.onTipChange
	n.Base.ProcessFn = n.ProcessBlock
	return n, nil
}

// stratView adapts the node to the strategy.View surface.
type stratView struct{ n *Node }

func (v stratView) NodeID() int      { return v.n.Env.NodeID() }
func (v stratView) Now() int64       { return v.n.Env.Now() }
func (v stratView) Tip() *chain.Node { return v.n.State.Tip() }
func (v stratView) Leading() bool    { return v.n.IsLeader() }
func (n *Node) view() strategy.View  { return stratView{n} }

// StrategyName returns the active mining strategy's name.
func (n *Node) StrategyName() string { return n.strat.Name() }

// SetStrategy switches the node's mining strategy from now on; nil restores
// honest. The previous strategy instance is dropped with its state, so any
// blocks it was withholding are abandoned unannounced.
func (n *Node) SetStrategy(s strategy.Strategy) {
	if s == nil {
		s = strategy.Honest{}
	}
	n.strat = s
}

// MicroblocksMined returns how many microblocks this node has produced.
func (n *Node) MicroblocksMined() uint64 { return n.microMined }

// IsLeader reports whether this node currently leads (the main chain's
// latest key block carries its public key).
func (n *Node) IsLeader() bool {
	key, ok := n.State.Tip().KeyAncestor.Block().(*types.KeyBlock)
	return ok && key.Header.LeaderKey == n.cfg.Key.Public()
}

// ProcessBlock wraps Base.ProcessBlock with microblock fraud detection — a
// valid microblock whose parent already has a different microblock child in
// the same epoch proves the leader forked its own chain (§4.5) — and with
// the strategy's external-block hook, through which withholding strategies
// release private blocks as the public chain advances. The gossip layer
// routes through this method via Base.ProcessFn.
func (n *Node) ProcessBlock(blk types.Block, from int) *chain.AddResult {
	res := n.Base.ProcessBlock(blk, from)
	for _, added := range res.Added {
		if added.Block().Kind() == types.KindMicro {
			n.detectFraud(added)
		}
	}
	if from >= 0 {
		for _, added := range res.Added {
			for _, rel := range n.strat.OnExternalBlock(n.view(), added) {
				n.Gossip.Announce(rel, -1)
			}
		}
	}
	return res
}

// MineKeyBlock assembles and submits a key block on the parent the node's
// strategy selects (the tip for honest nodes): the scheduler's onFind
// callback. The strategy also decides whether the block is announced or
// withheld. Becoming the leader starts microblock production through the
// tip-change hook.
func (n *Node) MineKeyBlock() *types.KeyBlock {
	b := n.AssembleKeyBlock()
	n.submitOwn(b, n.strat.OnKeyBlockMined(n.view(), b))
	return b
}

// submitOwn routes a self-produced block through the publish or withhold
// path and informs the strategy of the resulting tree node.
func (n *Node) submitOwn(b types.Block, act strategy.Action) {
	var res *chain.AddResult
	if act == strategy.Withhold {
		res = n.Base.SubmitOwnBlockQuiet(b)
	} else {
		res = n.SubmitOwnBlock(b)
	}
	if res != nil && res.Node != nil {
		n.strat.OnOwnBlockAdded(n.view(), res.Node, act)
	}
}

// AssembleKeyBlock builds (without submitting) the next key block on the
// parent the node's strategy selects; honest nodes extend the tip.
func (n *Node) AssembleKeyBlock() *types.KeyBlock {
	parent := n.strat.KeyBlockParent(n.view())
	if parent == nil {
		parent = n.State.Tip()
	}
	return n.AssembleKeyBlockOn(parent)
}

// AssembleKeyBlockOn builds (without submitting) a key block extending
// parent. Its coinbase implements §4.4: mint subsidy + previous epoch's
// fees, paying this node the subsidy plus its own share and the previous
// leader its placement share — both as directed by the strategy (honest:
// 60%/40%).
func (n *Node) AssembleKeyBlockOn(parent *chain.Node) *types.KeyBlock {
	params := n.cfg.Params
	epochFees := n.State.EpochFeesAt(parent)
	mine, prevShare := n.strat.SplitFee(params, epochFees)

	outputs := []types.TxOutput{{
		Value: params.Subsidy + mine,
		To:    n.cfg.Key.Public().Addr(),
	}}
	if prevShare > 0 {
		if prev, ok := prevLeaderAddress(parent); ok {
			outputs = append(outputs, types.TxOutput{Value: prevShare, To: prev})
		}
	}
	coinbase := &types.Transaction{
		Kind:    types.TxCoinbase,
		Outputs: outputs,
		Height:  parent.KeyHeight + 1,
	}
	txs := []*types.Transaction{coinbase}
	target := chain.NextTarget(parent, params)
	return &types.KeyBlock{
		Header: types.KeyBlockHeader{
			PowHeader: types.PowHeader{
				Prev:       parent.Hash(),
				MerkleRoot: types.TxRoot(txs),
				TimeNanos:  n.Env.Now(),
				Target:     target,
			},
			LeaderKey: n.cfg.Key.Public(),
		},
		Txs:          txs,
		SimulatedPoW: n.cfg.SimulatedMining,
	}
}

// onTipChange arms or disarms microblock production as leadership changes.
func (n *Node) onTipChange(res *chain.AddResult) {
	if n.IsLeader() {
		if !n.leading {
			n.leading = true
			n.scheduleMicroblock()
		}
		return
	}
	n.leading = false
	if n.microTimer != nil {
		n.microTimer.Stop()
	}
}

// scheduleMicroblock arms the node's one microblock timer, re-arming it in
// place once it exists: it is called only after the timer fired or was
// stopped.
func (n *Node) scheduleMicroblock() {
	if n.microTimer == nil {
		n.microTimer = n.Env.After(n.cfg.Params.MicroblockInterval, n.microTick)
		return
	}
	n.microTimer.Reset(n.cfg.Params.MicroblockInterval)
}

// microTick is the microblock timer firing: mine, and re-arm while leading.
func (n *Node) microTick() {
	if !n.leading || !n.IsLeader() {
		n.leading = false
		return
	}
	n.MineMicroBlock()
	if n.leading {
		n.scheduleMicroblock()
	}
}

// MineMicroBlock assembles, signs, and submits one microblock on the
// current tip; the strategy decides whether it is announced or withheld. It
// returns nil without side effects when the node does not lead or the
// minimum interval has not elapsed.
func (n *Node) MineMicroBlock() *types.MicroBlock {
	if !n.IsLeader() {
		return nil
	}
	b := n.AssembleMicroBlock()
	if b == nil {
		return nil
	}
	n.microMined++
	n.submitOwn(b, n.strat.OnMicroBlockMined(n.view(), b))
	return b
}

// AssembleMicroBlock builds and signs (without submitting) the next
// microblock: mempool transactions up to the size cap plus any eligible
// poison transactions for frauds this node has witnessed.
func (n *Node) AssembleMicroBlock() *types.MicroBlock {
	tip := n.State.Tip()
	params := n.cfg.Params
	now := n.Env.Now()
	if now-tip.Block().Time() < int64(params.MinMicroblockInterval) {
		return nil // respect the §4.2 rate cap
	}
	var txs []*types.Transaction
	if !n.cfg.CensorTransactions {
		candidates := n.Pool.Select(params.MaxBlockSize - microReserve)
		txs, _ = n.filter.Filter(n.State, candidates, tip.KeyHeight)
		txs = append(txs, n.eligiblePoisons(tip)...)
	}

	b := &types.MicroBlock{
		Header: types.MicroBlockHeader{
			Prev:      tip.Hash(),
			TxRoot:    types.TxRoot(txs),
			TimeNanos: now,
		},
		Txs: txs,
	}
	b.Header.Sign(n.cfg.Key)
	return b
}
