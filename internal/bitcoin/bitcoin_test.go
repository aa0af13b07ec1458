package bitcoin

import (
	"errors"
	"testing"
	"time"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/types"
	"bitcoinng/internal/validate"
)

// cluster is a small emulated Bitcoin network for tests.
type cluster struct {
	loop    *sim.Loop
	net     *simnet.Network
	nodes   []*Node
	keys    []*crypto.PrivateKey
	genesis *types.PowBlock
	params  types.Params
}

func newCluster(t *testing.T, n int, seed int64, params types.Params) *cluster {
	t.Helper()
	loop := sim.NewLoop(0)
	netCfg := simnet.DefaultConfig(n, seed)
	network := simnet.New(loop, netCfg)

	keys := make([]*crypto.PrivateKey, n)
	for i := range keys {
		k, err := crypto.GenerateKey(sim.NewRand(seed, uint64(1000+i)))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	// Fund node 0 with outputs for workload transactions.
	payouts := make([]types.TxOutput, 64)
	for i := range payouts {
		payouts[i] = types.TxOutput{Value: 10_000, To: keys[0].Public().Addr()}
	}
	genesis := types.GenesisBlock(types.GenesisSpec{
		TimeNanos: 0,
		Target:    crypto.EasiestTarget,
		Payouts:   payouts,
	})

	c := &cluster{loop: loop, net: network, keys: keys, genesis: genesis, params: params}
	for i := 0; i < n; i++ {
		env := simnet.NewNodeEnv(loop, network, i, seed)
		bn, err := New(env, node.Config{
			Params:          params,
			Key:             keys[i],
			Genesis:         genesis,
			SimulatedMining: true,
			ConnectCache:    validate.Shared(),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		env.Deliver(bn.HandleMessage)
		c.nodes = append(c.nodes, bn)
	}
	return c
}

// preload puts the same artificial transactions in every node's pool,
// following the paper's §7 methodology.
func (c *cluster) preload(t *testing.T, count int, padding int) {
	t.Helper()
	cbID := c.genesis.Txs[0].ID()
	for i := 0; i < count; i++ {
		tx := &types.Transaction{
			Kind:    types.TxRegular,
			Inputs:  []types.TxInput{{Prev: types.OutPoint{TxID: cbID, Index: uint32(i)}}},
			Outputs: []types.TxOutput{{Value: 9_000, To: crypto.Address{byte(i)}}}, // 1000 fee
			Padding: make([]byte, padding),
		}
		tx.SignInput(0, c.keys[0])
		for _, n := range c.nodes {
			if err := n.Pool.Add(tx); err != nil {
				t.Fatalf("preload: %v", err)
			}
		}
	}
}

func testParams() types.Params {
	p := types.DefaultParams()
	p.TargetBlockInterval = 10 * time.Second
	p.MaxBlockSize = 50_000
	p.RandomTieBreak = false
	p.RetargetWindow = 0 // fixed difficulty under simulated mining
	return p
}

func TestClusterConvergence(t *testing.T) {
	c := newCluster(t, 8, 1, testParams())
	c.preload(t, 32, 100)

	// Round-robin mining: each node mines once, with time to propagate.
	for round := 0; round < 3; round++ {
		for _, n := range c.nodes {
			n.MineBlock()
			c.loop.RunFor(5 * time.Second)
		}
	}
	c.loop.RunFor(time.Minute)

	tip := c.nodes[0].State.Tip().Hash()
	for i, n := range c.nodes {
		if n.State.Tip().Hash() != tip {
			t.Errorf("node %d tip %s != node 0 tip %s", i,
				n.State.Tip().Hash().Short(), tip.Short())
		}
	}
	if h := c.nodes[0].State.Height(); h != 24 {
		t.Errorf("height %d, want 24", h)
	}
	// Workload transactions made it into blocks.
	confirmed := 0
	for _, n := range c.nodes[0].State.MainChain() {
		for _, tx := range n.Block().Transactions() {
			if tx.Kind == types.TxRegular {
				confirmed++
			}
		}
	}
	if confirmed != 32 {
		t.Errorf("confirmed %d transactions, want 32", confirmed)
	}
}

func TestSimultaneousMinersFork(t *testing.T) {
	c := newCluster(t, 6, 2, testParams())
	// Two miners find blocks at the same instant: a fork forms, then the
	// next block resolves it.
	c.nodes[0].MineBlock()
	c.nodes[1].MineBlock()
	c.loop.RunFor(30 * time.Second)

	// Both blocks exist in every tree; tips may differ between nodes
	// (first-seen tie-break) but heights agree.
	for i, n := range c.nodes {
		if n.State.Height() != 1 {
			t.Errorf("node %d height %d", i, n.State.Height())
		}
		if n.State.Store().Len() != 3 { // genesis + 2 competitors
			t.Errorf("node %d knows %d blocks", i, n.State.Store().Len())
		}
	}
	// A new block on top of node 2's tip resolves the fork network-wide.
	c.nodes[2].MineBlock()
	c.loop.RunFor(30 * time.Second)
	tip := c.nodes[0].State.Tip().Hash()
	for i, n := range c.nodes {
		if n.State.Tip().Hash() != tip {
			t.Errorf("node %d did not converge after fork", i)
		}
		if n.State.Height() != 2 {
			t.Errorf("node %d height %d after resolution", i, n.State.Height())
		}
	}
}

func TestBlockRespectsSizeCap(t *testing.T) {
	params := testParams()
	params.MaxBlockSize = 2000
	c := newCluster(t, 2, 3, params)
	c.preload(t, 30, 300) // each tx ~450+ bytes; only a few fit

	b := c.nodes[0].AssembleBlock()
	if b.WireSize() > params.MaxBlockSize {
		t.Errorf("block size %d exceeds cap %d", b.WireSize(), params.MaxBlockSize)
	}
	if len(b.Txs) < 2 {
		t.Error("block did not include any workload transactions")
	}
}

func TestCoinbaseClaimsFees(t *testing.T) {
	c := newCluster(t, 2, 4, testParams())
	c.preload(t, 4, 0) // 4 txs, 1000 fee each
	b := c.nodes[0].AssembleBlock()
	wantFees := types.Amount(4 * 1000)
	if got := b.Txs[0].OutputSum(); got != c.params.Subsidy+wantFees {
		t.Errorf("coinbase = %d, want subsidy %d + fees %d", got, c.params.Subsidy, wantFees)
	}
	// The assembled block connects.
	res := c.nodes[0].SubmitOwnBlock(b)
	if res.Status != chain.StatusMainChain {
		t.Errorf("own block status %v", res.Status)
	}
}

func TestRulesRejectWrongKind(t *testing.T) {
	c := newCluster(t, 2, 5, testParams())
	leader := c.keys[0]
	kb := &types.KeyBlock{
		Header: types.KeyBlockHeader{
			PowHeader: types.PowHeader{
				Prev:      c.genesis.Hash(),
				TimeNanos: 1,
				Target:    crypto.EasiestTarget,
			},
			LeaderKey: leader.Public(),
		},
		Txs: []*types.Transaction{{
			Kind:    types.TxCoinbase,
			Outputs: []types.TxOutput{{Value: 1, To: leader.Public().Addr()}},
			Height:  1,
		}},
		SimulatedPoW: true,
	}
	kb.Header.MerkleRoot = crypto.MerkleRoot(types.TxIDs(kb.Txs))
	_, err := c.nodes[0].State.AddBlock(kb, 0)
	if !errors.Is(err, ErrWrongBlockKind) {
		t.Errorf("key block in bitcoin: err = %v", err)
	}
}

func TestRulesRejectFutureTimestamp(t *testing.T) {
	c := newCluster(t, 2, 6, testParams())
	b := c.nodes[0].AssembleBlock()
	b.Header.TimeNanos = c.loop.Now() + int64(chain.MaxFutureSkew) + 1
	_, err := c.nodes[0].State.AddBlock(b, c.loop.Now())
	if !errors.Is(err, chain.ErrTimeTooNew) {
		t.Errorf("future block err = %v", err)
	}
}

func TestRulesRejectPoison(t *testing.T) {
	c := newCluster(t, 2, 7, testParams())
	b := c.nodes[0].AssembleBlock()
	poison := &types.Transaction{
		Kind:     types.TxPoison,
		Outputs:  []types.TxOutput{{Value: 0, To: crypto.Address{1}}},
		Evidence: &types.PoisonEvidence{},
	}
	b.Txs = append(b.Txs, poison)
	b.Header.MerkleRoot = crypto.MerkleRoot(types.TxIDs(b.Txs))
	_, err := c.nodes[0].State.AddBlock(b, c.loop.Now())
	if !errors.Is(err, ErrPoisonInBitcoin) {
		t.Errorf("poison in bitcoin: err = %v", err)
	}
}

func TestRulesRejectOverclaimingCoinbase(t *testing.T) {
	c := newCluster(t, 2, 8, testParams())
	b := c.nodes[0].AssembleBlock()
	b.Txs[0].Outputs[0].Value = c.params.Subsidy + 1 // no fees collected
	b.Txs[0].Invalidate()
	b.Header.MerkleRoot = crypto.MerkleRoot(types.TxIDs(b.Txs))
	_, err := c.nodes[0].State.AddBlock(b, c.loop.Now())
	if !errors.Is(err, ErrBadCoinbaseAmt) {
		t.Errorf("overclaiming coinbase err = %v", err)
	}
}

func TestRulesRejectWrongCoinbaseHeight(t *testing.T) {
	c := newCluster(t, 2, 9, testParams())
	b := c.nodes[0].AssembleBlock()
	b.Txs[0].Height = 7
	b.Txs[0].Invalidate()
	b.Header.MerkleRoot = crypto.MerkleRoot(types.TxIDs(b.Txs))
	_, err := c.nodes[0].State.AddBlock(b, c.loop.Now())
	if !errors.Is(err, chain.ErrBadCoinbaseHt) {
		t.Errorf("wrong coinbase height err = %v", err)
	}
}

func TestLiveRejectsSimulatedPoW(t *testing.T) {
	// A live-mode node must reject scheduler-generated blocks.
	loop := sim.NewLoop(0)
	network := simnet.New(loop, simnet.DefaultConfig(2, 10))
	key, _ := crypto.GenerateKey(sim.NewRand(10, 1))
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	env := simnet.NewNodeEnv(loop, network, 0, 10)
	live, err := New(env, node.Config{
		Params:          testParams(),
		Key:             key,
		Genesis:         genesis,
		SimulatedMining: false,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fake := &types.PowBlock{
		Header: types.PowHeader{
			Prev:      genesis.Hash(),
			TimeNanos: 1,
			Target:    crypto.EasiestTarget,
		},
		Txs: []*types.Transaction{{
			Kind:    types.TxCoinbase,
			Outputs: []types.TxOutput{{Value: 1, To: key.Public().Addr()}},
			Height:  1,
		}},
		SimulatedPoW: true,
	}
	fake.Header.MerkleRoot = crypto.MerkleRoot(types.TxIDs(fake.Txs))
	if _, err := live.State.AddBlock(fake, 1); !errors.Is(err, chain.ErrSimulatedPoW) {
		t.Errorf("live node accepted simulated block: %v", err)
	}
}

func TestLiveMiningRoundTrip(t *testing.T) {
	// A real proof-of-work block at trivial difficulty: grind nonces until
	// the hash satisfies the (easy) target, then connect it on a live
	// node. This is the cmd/ngnode code path.
	loop := sim.NewLoop(0)
	network := simnet.New(loop, simnet.DefaultConfig(2, 11))
	key, _ := crypto.GenerateKey(sim.NewRand(11, 1))
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	env := simnet.NewNodeEnv(loop, network, 0, 11)
	live, err := New(env, node.Config{
		Params:  testParams(),
		Key:     key,
		Genesis: genesis,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Advance past genesis so the timestamp clears median-time-past.
	loop.RunFor(time.Second)
	b := live.AssembleBlock()
	b.SimulatedPoW = false
	// EasiestTarget accepts any hash, so nonce 0 suffices; still, exercise
	// the loop shape used by the live miner.
	for nonce := uint64(0); ; nonce++ {
		b.Header.Nonce = nonce
		if crypto.CheckProofOfWork(b.Header.Hash(), b.Header.Target) {
			break
		}
	}
	res := live.SubmitOwnBlock(b)
	if res.Status != chain.StatusMainChain {
		t.Errorf("live-mined block status %v", res.Status)
	}
}

func TestMedianTimePastAndNextTarget(t *testing.T) {
	params := testParams()
	params.RetargetWindow = 4
	c := newCluster(t, 2, 12, params)
	n := c.nodes[0]
	// Mine a few blocks with the loop advancing so timestamps climb.
	for i := 0; i < 6; i++ {
		n.MineBlock()
		c.loop.RunFor(10 * time.Second)
	}
	tip := n.State.Tip()
	mtp := chain.MedianTimePast(tip, 11)
	if mtp <= 0 || mtp > tip.Block().Time() {
		t.Errorf("median time past %d out of range", mtp)
	}
	// NextTarget stays finite and positive through a retarget boundary.
	got := chain.NextTarget(tip, params)
	if got == 0 {
		t.Error("NextTarget returned zero target")
	}
}
