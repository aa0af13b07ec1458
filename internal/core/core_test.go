package core

import (
	"errors"
	"testing"
	"time"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/types"
)

// ngCluster is a small emulated Bitcoin-NG network for tests.
type ngCluster struct {
	loop    *sim.Loop
	net     *simnet.Network
	nodes   []*Node
	keys    []*crypto.PrivateKey
	genesis *types.PowBlock
	params  types.Params
}

func ngParams() types.Params {
	p := types.DefaultParams()
	p.TargetBlockInterval = 100 * time.Second
	p.MicroblockInterval = 5 * time.Second
	p.MinMicroblockInterval = 10 * time.Millisecond
	p.MaxBlockSize = 50_000
	p.RandomTieBreak = false
	p.RetargetWindow = 0
	return p
}

func newNGCluster(t *testing.T, n int, seed int64, params types.Params) *ngCluster {
	t.Helper()
	loop := sim.NewLoop(0)
	network := simnet.New(loop, simnet.DefaultConfig(n, seed))
	keys := make([]*crypto.PrivateKey, n)
	for i := range keys {
		k, err := crypto.GenerateKey(sim.NewRand(seed, uint64(1000+i)))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	payouts := make([]types.TxOutput, 64)
	for i := range payouts {
		payouts[i] = types.TxOutput{Value: 10_000, To: keys[0].Public().Addr()}
	}
	genesis := types.GenesisBlock(types.GenesisSpec{
		Target:  crypto.EasiestTarget,
		Payouts: payouts,
	})
	c := &ngCluster{loop: loop, net: network, keys: keys, genesis: genesis, params: params}
	for i := 0; i < n; i++ {
		env := simnet.NewNodeEnv(loop, network, i, seed)
		ng, err := New(env, Config{
			Params:          params,
			Key:             keys[i],
			Genesis:         genesis,
			SimulatedMining: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		env.Deliver(ng.HandleMessage)
		c.nodes = append(c.nodes, ng)
	}
	return c
}

func (c *ngCluster) preload(t *testing.T, count, padding int) {
	t.Helper()
	cbID := c.genesis.Txs[0].ID()
	for i := 0; i < count; i++ {
		tx := &types.Transaction{
			Kind:    types.TxRegular,
			Inputs:  []types.TxInput{{Prev: types.OutPoint{TxID: cbID, Index: uint32(i)}}},
			Outputs: []types.TxOutput{{Value: 9_000, To: crypto.Address{byte(i)}}},
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

func TestLeaderProducesMicroblocks(t *testing.T) {
	c := newNGCluster(t, 4, 1, ngParams())
	c.preload(t, 20, 100)

	c.nodes[0].MineKeyBlock()
	if !c.nodes[0].IsLeader() {
		t.Fatal("key block miner is not leader")
	}
	// Microblocks at 5s intervals: after 26s expect 5.
	c.loop.RunFor(26 * time.Second)
	if got := c.nodes[0].MicroblocksMined(); got != 5 {
		t.Errorf("leader produced %d microblocks, want 5", got)
	}
	// All nodes follow the microblock chain.
	c.loop.RunFor(20 * time.Second)
	tip := c.nodes[0].State.Tip().Hash()
	for i, n := range c.nodes {
		if n.State.Tip().Hash() != tip {
			t.Errorf("node %d tip mismatch", i)
		}
	}
	// Transactions got serialized.
	confirmed := 0
	for _, n := range c.nodes[0].State.MainChain() {
		for _, tx := range n.Block().Transactions() {
			if tx.Kind == types.TxRegular {
				confirmed++
			}
		}
	}
	if confirmed == 0 {
		t.Error("no transactions serialized into microblocks")
	}
}

func TestLeadershipHandsOver(t *testing.T) {
	c := newNGCluster(t, 4, 2, ngParams())
	c.nodes[0].MineKeyBlock()
	c.loop.RunFor(12 * time.Second)
	if !c.nodes[0].IsLeader() {
		t.Fatal("node 0 should lead")
	}
	// Node 1 finds the next key block; node 0 must stop producing.
	c.nodes[1].MineKeyBlock()
	c.loop.RunFor(5 * time.Second)
	if c.nodes[0].IsLeader() {
		t.Error("deposed leader still leads")
	}
	if !c.nodes[1].IsLeader() {
		t.Error("new leader not leading")
	}
	mined := c.nodes[0].MicroblocksMined()
	c.loop.RunFor(30 * time.Second)
	if c.nodes[0].MicroblocksMined() != mined {
		t.Error("deposed leader kept producing microblocks")
	}
	if c.nodes[1].MicroblocksMined() == 0 {
		t.Error("new leader produced no microblocks")
	}
}

// TestFigure2ForkOnLeaderSwitch reproduces the paper's Figure 2: the old
// leader's latest microblocks are pruned when the new key block extends an
// earlier microblock.
func TestFigure2ForkOnLeaderSwitch(t *testing.T) {
	c := newNGCluster(t, 2, 3, ngParams())
	a, b := c.nodes[0], c.nodes[1]

	a.MineKeyBlock()
	c.loop.RunFor(11 * time.Second) // a produced micro m1, m2 (5s, 10s)
	// b mines its key block on its current view; then a's later
	// microblocks (m3...) arrive at b as a short fork, which b prunes.
	b.MineKeyBlock()
	m3 := a.MineMicroBlock() // a hasn't heard b's key block yet
	if m3 == nil {
		t.Fatal("a should still believe it leads")
	}
	c.loop.RunFor(30 * time.Second)

	// The leader keeps producing, so the follower may trail by in-flight
	// microblocks; convergence means a's tip lies on b's main chain.
	tipA, ok := b.State.Store().Get(a.State.Tip().Hash())
	if !ok || !b.State.MainChainContains(tipA) {
		t.Fatalf("nodes did not converge after leader switch")
	}
	// m3 is pruned: known to b (or a) but not on the main chain.
	if n, ok := a.State.Store().Get(m3.Hash()); ok {
		if a.State.MainChainContains(n) {
			t.Error("pruned microblock still on main chain")
		}
	}
	// The winning chain runs through b's key block.
	if a.State.Tip().KeyAncestor.Block().(*types.KeyBlock).Header.LeaderKey != c.keys[1].Public() {
		t.Error("main chain does not end in b's epoch")
	}
}

func TestFeeSplit4060(t *testing.T) {
	c := newNGCluster(t, 2, 4, ngParams())
	c.preload(t, 10, 0) // fees: 10 × 1000
	a, b := c.nodes[0], c.nodes[1]

	a.MineKeyBlock()
	c.loop.RunFor(26 * time.Second) // a serializes the pool: 10000 in fees
	epochFees := types.Amount(10 * 1000)

	kb := b.AssembleKeyBlock()
	// Coinbase: b takes subsidy + 60%; a (prev leader) gets 40%.
	if len(kb.Txs[0].Outputs) != 2 {
		t.Fatalf("coinbase outputs = %d, want 2", len(kb.Txs[0].Outputs))
	}
	self, prev := kb.Txs[0].Outputs[0], kb.Txs[0].Outputs[1]
	if self.To != c.keys[1].Public().Addr() || prev.To != c.keys[0].Public().Addr() {
		t.Error("coinbase recipients wrong")
	}
	wantPrev := types.Amount(float64(epochFees) * 0.40)
	if prev.Value != wantPrev {
		t.Errorf("prev leader share = %d, want %d", prev.Value, wantPrev)
	}
	if self.Value != c.params.Subsidy+epochFees-wantPrev {
		t.Errorf("new leader share = %d", self.Value)
	}
	// It connects.
	res := b.SubmitOwnBlock(kb)
	if res.Status != chain.StatusMainChain {
		t.Errorf("fee-split key block status %v", res.Status)
	}
}

func TestFeeSplitEnforced(t *testing.T) {
	c := newNGCluster(t, 2, 5, ngParams())
	c.preload(t, 10, 0)
	a, b := c.nodes[0], c.nodes[1]
	a.MineKeyBlock()
	c.loop.RunFor(26 * time.Second)

	// b tries to keep everything.
	kb := b.AssembleKeyBlock()
	kb.Txs[0].Outputs = []types.TxOutput{{
		Value: kb.Txs[0].OutputSum(),
		To:    c.keys[1].Public().Addr(),
	}}
	kb.Txs[0].Invalidate()
	kb.Header.MerkleRoot = crypto.MerkleRoot(types.TxIDs(kb.Txs))
	_, err := b.State.AddBlock(kb, c.loop.Now())
	if !errors.Is(err, ErrFeeSplitShort) {
		t.Errorf("greedy coinbase err = %v", err)
	}

	// Claiming more than subsidy+fees also fails.
	kb2 := b.AssembleKeyBlock()
	kb2.Txs[0].Outputs[0].Value += 1
	kb2.Txs[0].Invalidate()
	kb2.Header.MerkleRoot = crypto.MerkleRoot(types.TxIDs(kb2.Txs))
	_, err = b.State.AddBlock(kb2, c.loop.Now())
	if !errors.Is(err, ErrBadCoinbaseAmt) {
		t.Errorf("minting coinbase err = %v", err)
	}

	// At the boundary: one unit short of the previous leader's share is
	// refused, exactly the share connects.
	parent := b.State.Tip()
	epochFees := b.State.EpochFeesAt(parent)
	leaderShare, _ := c.params.SplitFee(epochFees)
	if leaderShare == 0 {
		t.Fatal("epoch collected no fees")
	}
	paying := func(prevPaid types.Amount) *types.KeyBlock {
		kb := b.AssembleKeyBlockOn(parent)
		kb.Txs[0].Outputs = []types.TxOutput{
			{Value: c.params.Subsidy + epochFees - leaderShare, To: c.keys[1].Public().Addr()},
			{Value: prevPaid, To: c.keys[0].Public().Addr()},
		}
		kb.Txs[0].Invalidate()
		kb.Header.MerkleRoot = crypto.MerkleRoot(types.TxIDs(kb.Txs))
		return kb
	}
	if _, err := b.State.AddBlock(paying(leaderShare-1), c.loop.Now()); !errors.Is(err, ErrFeeSplitShort) {
		t.Errorf("share-1 to the previous leader: err = %v, want ErrFeeSplitShort", err)
	}
	if _, err := b.State.AddBlock(paying(leaderShare), c.loop.Now()); err != nil {
		t.Errorf("exact share to the previous leader: err = %v", err)
	}
}

func TestMicroblockRateLimit(t *testing.T) {
	params := ngParams()
	params.MinMicroblockInterval = time.Second
	c := newNGCluster(t, 2, 6, params)
	a := c.nodes[0]
	a.MineKeyBlock()
	c.loop.RunFor(6 * time.Second) // one microblock at t≈5s

	// A microblock violating the minimum spacing is invalid (§4.2).
	tip := a.State.Tip()
	mb := &types.MicroBlock{
		Header: types.MicroBlockHeader{
			Prev:      tip.Hash(),
			TxRoot:    crypto.MerkleRoot(nil),
			TimeNanos: tip.Block().Time() + int64(500*time.Millisecond),
		},
	}
	mb.Header.Sign(c.keys[0])
	_, err := a.State.AddBlock(mb, c.loop.Now())
	if !errors.Is(err, ErrMicroTooSoon) {
		t.Errorf("too-soon microblock err = %v", err)
	}

	// A microblock from the future is invalid.
	mb2 := &types.MicroBlock{
		Header: types.MicroBlockHeader{
			Prev:      tip.Hash(),
			TxRoot:    crypto.MerkleRoot(nil),
			TimeNanos: c.loop.Now() + int64(chain.MaxFutureSkew) + 1,
		},
	}
	mb2.Header.Sign(c.keys[0])
	_, err = a.State.AddBlock(mb2, c.loop.Now())
	if !errors.Is(err, chain.ErrTimeTooNew) {
		t.Errorf("future microblock err = %v", err)
	}
}

// TestMicroblockSizeBoundary: a microblock of exactly MaxBlockSize bytes is
// valid, and one a byte larger is refused.
func TestMicroblockSizeBoundary(t *testing.T) {
	// micro spends the first genesis payout in a transaction padded by
	// padding bytes; its size depends on nothing else.
	micro := func(c *ngCluster, prev crypto.Hash, padding int) *types.MicroBlock {
		tx := &types.Transaction{
			Kind:    types.TxRegular,
			Inputs:  []types.TxInput{{Prev: types.OutPoint{TxID: c.genesis.Txs[0].ID()}}},
			Outputs: []types.TxOutput{{Value: 9_000, To: crypto.Address{1}}},
			Padding: make([]byte, padding),
		}
		tx.SignInput(0, c.keys[0])
		txs := []*types.Transaction{tx}
		mb := &types.MicroBlock{
			Header: types.MicroBlockHeader{Prev: prev, TxRoot: crypto.MerkleRoot(types.TxIDs(txs)), TimeNanos: c.loop.Now()},
			Txs:    txs,
		}
		mb.Header.Sign(c.keys[0])
		return mb
	}
	params := ngParams()
	params.MaxBlockSize = micro(newNGCluster(t, 2, 21, params), crypto.Hash{}, 100).WireSize()
	c := newNGCluster(t, 2, 21, params)
	a := c.nodes[0]
	a.MineKeyBlock()
	c.loop.RunFor(time.Second)
	tip := a.State.Tip()
	if err := (Rules{}).CheckBlock(a.State, tip, micro(c, tip.Hash(), 100), c.loop.Now()); err != nil {
		t.Errorf("microblock of exactly MaxBlockSize (%d) bytes: %v", params.MaxBlockSize, err)
	}
	big := micro(c, tip.Hash(), 101)
	if big.WireSize() != params.MaxBlockSize+1 {
		t.Fatalf("padded microblock is %d bytes, want %d", big.WireSize(), params.MaxBlockSize+1)
	}
	if err := (Rules{}).CheckBlock(a.State, tip, big, c.loop.Now()); !errors.Is(err, ErrMicroTooBig) {
		t.Errorf("microblock one byte over MaxBlockSize: err = %v, want ErrMicroTooBig", err)
	}
}

func TestMicroblockWrongSignerRejected(t *testing.T) {
	c := newNGCluster(t, 2, 7, ngParams())
	a, b := c.nodes[0], c.nodes[1]
	a.MineKeyBlock()
	c.loop.RunFor(time.Second)

	// b (not the leader) signs a microblock: invalid.
	tip := b.State.Tip()
	mb := &types.MicroBlock{
		Header: types.MicroBlockHeader{
			Prev:      tip.Hash(),
			TxRoot:    crypto.MerkleRoot(nil),
			TimeNanos: c.loop.Now(),
		},
	}
	mb.Header.Sign(c.keys[1])
	if _, err := b.State.AddBlock(mb, c.loop.Now()); !errors.Is(err, types.ErrBadSignature) {
		t.Errorf("wrong-signer microblock err = %v", err)
	}
}

func TestNoMicroblockBeforeFirstKeyBlock(t *testing.T) {
	c := newNGCluster(t, 2, 8, ngParams())
	mb := &types.MicroBlock{
		Header: types.MicroBlockHeader{
			Prev:      c.genesis.Hash(),
			TxRoot:    crypto.MerkleRoot(nil),
			TimeNanos: 1,
		},
	}
	mb.Header.Sign(c.keys[0])
	if _, err := c.nodes[0].State.AddBlock(mb, 1); !errors.Is(err, ErrNoEpoch) {
		t.Errorf("genesis microblock err = %v", err)
	}
}

func TestPowBlockRejected(t *testing.T) {
	c := newNGCluster(t, 2, 9, ngParams())
	pb := &types.PowBlock{
		Header: types.PowHeader{Prev: c.genesis.Hash(), Target: crypto.EasiestTarget},
		Txs: []*types.Transaction{{
			Kind:    types.TxCoinbase,
			Outputs: []types.TxOutput{{Value: 1, To: crypto.Address{1}}},
			Height:  1,
		}},
		SimulatedPoW: true,
	}
	pb.Header.MerkleRoot = crypto.MerkleRoot(types.TxIDs(pb.Txs))
	if _, err := c.nodes[0].State.AddBlock(pb, 1); !errors.Is(err, ErrWrongBlockKind) {
		t.Errorf("pow block in NG err = %v", err)
	}
}

// TestPoisonLifecycle drives the full §4.5 story: a malicious leader forks
// its microblock chain to double-spend, an honest node detects the fork,
// becomes leader, places a poison transaction, and the cheater's revenue is
// revoked with 5% going to the poisoner.
func TestPoisonLifecycle(t *testing.T) {
	params := ngParams()
	params.CoinbaseMaturity = 100 // revenue still locked when poison lands
	c := newNGCluster(t, 2, 10, params)
	cheater, honest := c.nodes[0], c.nodes[1]

	kb := cheater.MineKeyBlock()
	c.loop.RunFor(2 * time.Second)

	// The cheater signs two microblocks extending the same parent.
	tip := cheater.State.Tip()
	mk := func(marker byte) *types.MicroBlock {
		mb := &types.MicroBlock{
			Header: types.MicroBlockHeader{
				Prev:      tip.Hash(),
				TimeNanos: c.loop.Now(),
			},
			Txs: nil,
		}
		// Distinct TxRoot via a marker transaction.
		tx := &types.Transaction{
			Kind:    types.TxRegular,
			Inputs:  []types.TxInput{{Prev: types.OutPoint{Index: uint32(marker)}}},
			Outputs: []types.TxOutput{{Value: 0, To: crypto.Address{marker}}},
		}
		tx.SignInput(0, c.keys[0])
		_ = tx // keep microblocks empty but distinct via timestamp instead
		mb.Header.TimeNanos += int64(marker) * int64(time.Millisecond) * 20
		mb.Header.TxRoot = crypto.MerkleRoot(nil)
		mb.Header.Sign(c.keys[0])
		return mb
	}
	mbA, mbB := mk(1), mk(2)

	// Both reach the honest node (split-brain attempt).
	honest.ProcessBlock(mbA, 0)
	honest.ProcessBlock(mbB, 0)
	if len(honest.KnownFrauds()) != 1 {
		t.Fatalf("honest node recorded %d frauds, want 1", len(honest.KnownFrauds()))
	}

	// Honest node becomes the next leader and places the poison.
	c.loop.RunFor(time.Second)
	honest.MineKeyBlock()
	c.loop.RunFor(10 * time.Second) // microblock containing the poison

	// The cheater's key block coinbase is revoked on the honest chain.
	cbID := kb.Txs[0].ID()
	if !honest.State.UTXO().Poisoned(cbID) {
		t.Fatal("cheater's coinbase not poisoned")
	}
	// The poisoner received its 5% reward.
	reward := honest.State.UTXO().BalanceOf(c.keys[1].Public().Addr())
	wantMin := types.Amount(float64(params.Subsidy) * params.PoisonRewardFrac)
	if reward < wantMin {
		t.Errorf("poisoner balance %d, want at least %d", reward, wantMin)
	}
	// And the poison propagates: the cheater's own chain applies it too.
	c.loop.RunFor(20 * time.Second)
	if !cheater.State.UTXO().Poisoned(cbID) {
		t.Error("poison did not propagate to the cheater")
	}
}

func TestPoisonRejectedBeforeNextKeyBlock(t *testing.T) {
	c := newNGCluster(t, 2, 11, ngParams())
	cheater, honest := c.nodes[0], c.nodes[1]
	kb := cheater.MineKeyBlock()
	c.loop.RunFor(2 * time.Second)

	tip := honest.State.Tip()
	mkMicro := func(ts int64) *types.MicroBlock {
		mb := &types.MicroBlock{
			Header: types.MicroBlockHeader{
				Prev:      tip.Hash(),
				TxRoot:    crypto.MerkleRoot(nil),
				TimeNanos: ts,
			},
		}
		mb.Header.Sign(c.keys[0])
		return mb
	}
	onChain := mkMicro(c.loop.Now())
	pruned := mkMicro(c.loop.Now() + int64(time.Millisecond*50))
	honest.ProcessBlock(onChain, 0)
	honest.ProcessBlock(pruned, 0)

	// Hand-build a poison placed in the same epoch (before the next key
	// block): must be rejected (§4.5 placement rule).
	conflictNode, _ := honest.State.Store().Get(onChain.Hash())
	_ = conflictNode
	poison := &types.Transaction{
		Kind:    types.TxPoison,
		Outputs: []types.TxOutput{{Value: 0, To: c.keys[1].Public().Addr()}},
		Evidence: &types.PoisonEvidence{
			Culprit:  kb.Hash(),
			Pruned:   pruned.Header,
			Conflict: onChain.Hash(),
		},
	}
	mb := &types.MicroBlock{
		Header: types.MicroBlockHeader{
			Prev:      honest.State.Tip().Hash(),
			TxRoot:    crypto.MerkleRoot(types.TxIDs([]*types.Transaction{poison})),
			TimeNanos: c.loop.Now() + int64(time.Second),
		},
		Txs: []*types.Transaction{poison},
	}
	mb.Header.Sign(c.keys[0]) // current leader is still the cheater
	_, err := honest.State.AddBlock(mb, c.loop.Now()+int64(time.Second))
	if !errors.Is(err, ErrPoisonTooSoon) {
		t.Errorf("same-epoch poison err = %v", err)
	}
}

// evidenceFixture is a three-node network where a led one epoch and b leads
// the next, each with one microblock on the main chain: the setting for a
// poison that b places against a.
type evidenceFixture struct {
	c        *ngCluster
	kbA      *types.KeyBlock
	inA, inB *chain.Node // the first microblocks of a's and of b's epoch
}

// firstMicroIn returns the first main-chain microblock of the epoch opened
// by key block k.
func firstMicroIn(t *testing.T, n *Node, k *types.KeyBlock) *chain.Node {
	t.Helper()
	for _, m := range n.State.MainChain() {
		if m.Block().Kind() == types.KindMicro && m.KeyAncestor.Hash() == k.Hash() {
			return m
		}
	}
	t.Fatal("no microblock in the epoch")
	return nil
}

func newEvidenceFixture(t *testing.T) evidenceFixture {
	c := newNGCluster(t, 3, 12, ngParams())
	a, b := c.nodes[0], c.nodes[1]
	kbA := a.MineKeyBlock()
	c.loop.RunFor(8 * time.Second) // one honest microblock, relayed to b
	kbB := b.MineKeyBlock()
	c.loop.RunFor(7 * time.Second) // one microblock in b's epoch
	return evidenceFixture{c: c, kbA: kbA, inA: firstMicroIn(t, b, kbA), inB: firstMicroIn(t, b, kbB)}
}

// sibling is a header sharing of's predecessor, signed by c.keys[signer].
func (f evidenceFixture) sibling(of *chain.Node, signer int) types.MicroBlockHeader {
	h := types.MicroBlockHeader{Prev: of.Block().PrevHash(), TxRoot: crypto.HashBytes([]byte("x")), TimeNanos: 1}
	h.Sign(f.c.keys[signer])
	return h
}

// TestPoisonBogusEvidenceRejected: a poison's evidence must prove that the
// culprit forked its own microblock chain (§4.5). Each case passes every
// other check and fails exactly one, on a network of its own.
func TestPoisonBogusEvidenceRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   func(f evidenceFixture) types.PoisonEvidence
	}{
		// The pruned header is not signed by the epoch's leader.
		{"wrong signer", func(f evidenceFixture) types.PoisonEvidence {
			return types.PoisonEvidence{Culprit: f.kbA.Hash(), Pruned: f.sibling(f.inA, 2), Conflict: f.inA.Hash()}
		}},
		// The pruned header is the on-chain microblock itself: no fork, yet
		// accepting it would revoke any honest leader's coinbase.
		{"conflict cited twice", func(f evidenceFixture) types.PoisonEvidence {
			return types.PoisonEvidence{Culprit: f.kbA.Hash(), Pruned: f.inA.Block().(*types.MicroBlock).Header, Conflict: f.inA.Hash()}
		}},
		// a signed a sibling of a microblock in b's epoch: no fork of a's chain.
		{"conflict in another epoch", func(f evidenceFixture) types.PoisonEvidence {
			return types.PoisonEvidence{Culprit: f.kbA.Hash(), Pruned: f.sibling(f.inB, 0), Conflict: f.inB.Hash()}
		}},
	} {
		f := newEvidenceFixture(t)
		ev := tc.ev(f)
		poison := &types.Transaction{
			Kind:     types.TxPoison,
			Outputs:  []types.TxOutput{{Value: 0, To: f.c.keys[1].Public().Addr()}},
			Evidence: &ev,
		}
		b := f.c.nodes[1]
		mb := &types.MicroBlock{
			Header: types.MicroBlockHeader{
				Prev:      b.State.Tip().Hash(),
				TxRoot:    crypto.MerkleRoot(types.TxIDs([]*types.Transaction{poison})),
				TimeNanos: f.c.loop.Now(),
			},
			Txs: []*types.Transaction{poison},
		}
		mb.Header.Sign(f.c.keys[1]) // b leads now
		if _, err := b.State.AddBlock(mb, f.c.loop.Now()); !errors.Is(err, ErrBadEvidence) {
			t.Errorf("%s: err = %v, want ErrBadEvidence", tc.name, err)
		}
		if b.State.UTXO().Poisoned(f.kbA.Txs[0].ID()) {
			t.Errorf("%s: a's coinbase revoked", tc.name)
		}
	}
}

func TestKeyBlockForkResolution(t *testing.T) {
	// Figure 3: two key blocks at the same height; the fork persists until
	// the next key block tips the balance.
	c := newNGCluster(t, 2, 13, ngParams())
	a, b := c.nodes[0], c.nodes[1]
	a.MineKeyBlock()
	c.loop.RunFor(time.Second)

	// Both mine the next key block nearly simultaneously.
	a.MineKeyBlock()
	b.MineKeyBlock()
	c.loop.RunFor(10 * time.Second)
	// Both branches exist; nodes disagree or agree by tie-break, but the
	// next key block resolves it decisively.
	a.MineKeyBlock()
	c.loop.RunFor(10 * time.Second)
	if a.State.Tip().Hash() != b.State.Tip().Hash() {
		t.Error("key block fork did not resolve")
	}
	if a.State.KeyHeight() != 3 {
		t.Errorf("key height %d, want 3", a.State.KeyHeight())
	}
}

// TestKeyBlockMedianTimePastBoundary: a key block with real proof of work
// must be strictly later than the median time past of its parent; a
// timestamp equal to it is refused and one nanosecond later passes.
func TestKeyBlockMedianTimePastBoundary(t *testing.T) {
	c := newNGCluster(t, 2, 17, ngParams())
	a := c.nodes[0]
	for i := 0; i < 4; i++ {
		a.MineKeyBlock()
		c.loop.RunFor(10 * time.Second)
	}
	parent := a.State.Tip()
	mtp := chain.MedianTimePast(parent, chain.MedianTimeWindow)
	if mtp >= parent.KeyAncestor.Time() {
		t.Fatalf("median time past %d not behind the last key block %d", mtp, parent.KeyAncestor.Time())
	}
	at := func(ts int64) *types.KeyBlock {
		kb := a.AssembleKeyBlockOn(parent)
		kb.SimulatedPoW = false // EasiestTarget: every hash is valid work
		kb.Header.TimeNanos = ts
		return kb
	}
	if at(0).Header.Target != crypto.EasiestTarget {
		t.Fatal("test needs the easiest target")
	}
	if err := (Rules{}).CheckBlock(a.State, parent, at(mtp), c.loop.Now()); !errors.Is(err, chain.ErrTimeTooOld) {
		t.Errorf("key block at median time past: err = %v, want chain.ErrTimeTooOld", err)
	}
	if err := (Rules{}).CheckBlock(a.State, parent, at(mtp+1), c.loop.Now()); err != nil {
		t.Errorf("key block one nanosecond past the median: err = %v", err)
	}
}
