package chain

import (
	"errors"
	"math/rand"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// openProtocol accepts any well-formed block; contextual economics are not
// enforced. Chain tests exercise the generic machinery; the real rules live
// in internal/bitcoin and internal/core and are tested there.
type openProtocol struct{}

func (openProtocol) RulesID() string { return "test/open" }

func (openProtocol) CheckBlock(st *State, parent *Node, b types.Block, now int64) error {
	switch blk := b.(type) {
	case *types.PowBlock:
		return blk.CheckWellFormed()
	case *types.KeyBlock:
		return blk.CheckWellFormed()
	case *types.MicroBlock:
		key, ok := parent.KeyAncestor.Block().(*types.KeyBlock)
		if !ok {
			return errors.New("microblock without key-block epoch")
		}
		return blk.CheckWellFormed(key.Header.LeaderKey)
	default:
		return errors.New("unknown block type")
	}
}

func (openProtocol) ConnectCheck(st *State, n *Node, fees []types.Amount) error { return nil }

func (openProtocol) PoisonTargets(st *State, parent *Node, b types.Block) (map[crypto.Hash]crypto.Hash, error) {
	return nil, nil
}

type fixture struct {
	t       *testing.T
	st      *State
	key     *crypto.PrivateKey
	genesis *types.PowBlock
	funded  []types.OutPoint
	now     int64
	height  uint64 // coinbase uniqueness counter
}

func newFixture(t *testing.T, random bool) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	key, err := crypto.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	spec := types.GenesisSpec{
		TimeNanos: 0,
		Target:    crypto.EasiestTarget,
		Payouts: []types.TxOutput{
			{Value: 1000, To: key.Public().Addr()},
			{Value: 1000, To: key.Public().Addr()},
		},
	}
	genesis := types.GenesisBlock(spec)
	params := types.DefaultParams()
	params.RandomTieBreak = random
	st, err := New(genesis, params, openProtocol{}, &HeaviestChain{RandomTieBreak: random, Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	cbID := genesis.Txs[0].ID()
	return &fixture{
		t:       t,
		st:      st,
		key:     key,
		genesis: genesis,
		funded: []types.OutPoint{
			{TxID: cbID, Index: 0},
			{TxID: cbID, Index: 1},
		},
	}
}

// powBlock builds a simulated-PoW block on prev with optional extra txs.
func (f *fixture) powBlock(prev crypto.Hash, txs ...*types.Transaction) *types.PowBlock {
	f.height++
	all := append([]*types.Transaction{{
		Kind:    types.TxCoinbase,
		Outputs: []types.TxOutput{{Value: 50, To: f.key.Public().Addr()}},
		Height:  f.height,
	}}, txs...)
	f.now += 1e9
	return &types.PowBlock{
		Header: types.PowHeader{
			Prev:       prev,
			MerkleRoot: crypto.MerkleRoot(types.TxIDs(all)),
			TimeNanos:  f.now,
			Target:     crypto.EasiestTarget,
		},
		Txs:          all,
		SimulatedPoW: true,
	}
}

// keyBlock builds a simulated key block on prev for leader.
func (f *fixture) keyBlock(prev crypto.Hash, leader *crypto.PrivateKey) *types.KeyBlock {
	f.height++
	txs := []*types.Transaction{{
		Kind:    types.TxCoinbase,
		Outputs: []types.TxOutput{{Value: 50, To: leader.Public().Addr()}},
		Height:  f.height,
	}}
	f.now += 1e9
	return &types.KeyBlock{
		Header: types.KeyBlockHeader{
			Prev:       prev,
			MerkleRoot: crypto.MerkleRoot(types.TxIDs(txs)),
			TimeNanos:  f.now,
			Target:     crypto.EasiestTarget,
			LeaderKey:  leader.Public(),
		},
		Txs:          txs,
		SimulatedPoW: true,
	}
}

// microBlock builds a microblock on prev signed by leader.
func (f *fixture) microBlock(prev crypto.Hash, leader *crypto.PrivateKey, txs ...*types.Transaction) *types.MicroBlock {
	f.now += 1e6
	mb := &types.MicroBlock{
		Header: types.MicroBlockHeader{
			Prev:      prev,
			TxRoot:    crypto.MerkleRoot(types.TxIDs(txs)),
			TimeNanos: f.now,
		},
		Txs: txs,
	}
	mb.Header.Sign(leader)
	return mb
}

func (f *fixture) add(b types.Block) *AddResult {
	f.t.Helper()
	res, err := f.st.AddBlock(b, f.now)
	if err != nil {
		f.t.Fatalf("AddBlock(%s): %v", b.Hash().Short(), err)
	}
	return res
}

func (f *fixture) spend(from types.OutPoint, value types.Amount, to crypto.Address) *types.Transaction {
	tx := &types.Transaction{
		Kind:    types.TxRegular,
		Inputs:  []types.TxInput{{Prev: from}},
		Outputs: []types.TxOutput{{Value: value, To: to}},
	}
	tx.SignInput(0, f.key)
	return tx
}

func TestLinearExtension(t *testing.T) {
	f := newFixture(t, false)
	b1 := f.powBlock(f.genesis.Hash())
	res := f.add(b1)
	if res.Status != StatusMainChain || len(res.Connected) != 1 {
		t.Fatalf("b1: %v connected=%d", res.Status, len(res.Connected))
	}
	b2 := f.powBlock(b1.Hash())
	res = f.add(b2)
	if res.Status != StatusMainChain {
		t.Fatalf("b2 status %v", res.Status)
	}
	if f.st.Height() != 2 || f.st.Tip().Hash() != b2.Hash() {
		t.Errorf("tip height %d hash %s", f.st.Height(), f.st.Tip().Hash().Short())
	}
	if f.st.KeyHeight() != 2 {
		t.Errorf("key height %d", f.st.KeyHeight())
	}
	// Duplicate detection.
	res = f.add(b2)
	if res.Status != StatusDuplicate {
		t.Errorf("dup status %v", res.Status)
	}
}

func TestForkAndReorg(t *testing.T) {
	f := newFixture(t, false)
	b1 := f.powBlock(f.genesis.Hash())
	f.add(b1)
	// Side branch from genesis, same height: first-seen keeps b1.
	a1 := f.powBlock(f.genesis.Hash())
	res := f.add(a1)
	if res.Status != StatusSideChain {
		t.Fatalf("a1 status %v", res.Status)
	}
	if f.st.Tip().Hash() != b1.Hash() {
		t.Error("equal-weight fork displaced first-seen tip")
	}
	// Extending the side branch outweighs: reorg.
	a2 := f.powBlock(a1.Hash())
	res = f.add(a2)
	if res.Status != StatusMainChain {
		t.Fatalf("a2 status %v", res.Status)
	}
	if len(res.Disconnected) != 1 || res.Disconnected[0].Hash() != b1.Hash() {
		t.Errorf("disconnected %d blocks", len(res.Disconnected))
	}
	if len(res.Connected) != 2 {
		t.Errorf("connected %d blocks, want 2", len(res.Connected))
	}
	if f.st.Tip().Hash() != a2.Hash() {
		t.Error("tip not on new branch")
	}
}

func TestReorgMovesUTXOState(t *testing.T) {
	f := newFixture(t, false)
	dest := crypto.Address{9}
	spend := f.spend(f.funded[0], 400, dest)

	// Main chain: b1 carries the spend.
	b1 := f.powBlock(f.genesis.Hash(), spend)
	f.add(b1)
	if got := f.st.UTXO().BalanceOf(dest); got != 400 {
		t.Fatalf("balance after connect = %d", got)
	}
	// Competing branch without the spend wins.
	a1 := f.powBlock(f.genesis.Hash())
	a2 := f.powBlock(a1.Hash())
	f.add(a1)
	f.add(a2)
	if got := f.st.UTXO().BalanceOf(dest); got != 0 {
		t.Errorf("balance after reorg = %d, want 0 (tx back in limbo)", got)
	}
	// The original output is spendable again.
	if _, ok := f.st.UTXO().Lookup(f.funded[0]); !ok {
		t.Error("reorg did not restore spent output")
	}
}

func TestMicroblockWeightlessForkChoice(t *testing.T) {
	// The Figure 2 scenario: leader A's microblocks are pruned by leader
	// B's key block that did not hear them.
	f := newFixture(t, false)
	rng := rand.New(rand.NewSource(99))
	leaderA, _ := crypto.GenerateKey(rng)
	leaderB, _ := crypto.GenerateKey(rng)

	k1 := f.keyBlock(f.genesis.Hash(), leaderA)
	f.add(k1)
	m1 := f.microBlock(k1.Hash(), leaderA)
	m2 := f.microBlock(m1.Hash(), leaderA)
	if res := f.add(m1); res.Status != StatusMainChain {
		t.Fatalf("m1 status %v", res.Status)
	}
	if res := f.add(m2); res.Status != StatusMainChain {
		t.Fatalf("m2 status %v", res.Status)
	}
	if f.st.Height() != 3 || f.st.KeyHeight() != 1 {
		t.Fatalf("height %d keyheight %d", f.st.Height(), f.st.KeyHeight())
	}

	// B's key block extends m1 only (did not see m2): heavier than the
	// microblock tail, so m2 is pruned.
	k2 := f.keyBlock(m1.Hash(), leaderB)
	res := f.add(k2)
	if res.Status != StatusMainChain {
		t.Fatalf("k2 status %v", res.Status)
	}
	if len(res.Disconnected) != 1 || res.Disconnected[0].Hash() != m2.Hash() {
		t.Errorf("expected m2 pruned, disconnected=%d", len(res.Disconnected))
	}
	if f.st.Tip().Hash() != k2.Hash() {
		t.Error("tip not at k2")
	}
	// Microblocks contributed no weight: k2's chain weight equals 2 key
	// blocks' work regardless of the microblocks.
	if f.st.Tip().KeyHeight != 2 {
		t.Errorf("key height %d", f.st.Tip().KeyHeight)
	}
}

func TestMicroblockExtendsTipDespiteZeroWeight(t *testing.T) {
	f := newFixture(t, false)
	leader, _ := crypto.GenerateKey(rand.New(rand.NewSource(3)))
	k1 := f.keyBlock(f.genesis.Hash(), leader)
	f.add(k1)
	m1 := f.microBlock(k1.Hash(), leader)
	res := f.add(m1)
	if res.Status != StatusMainChain {
		t.Fatalf("equal-weight descendant not adopted: %v", res.Status)
	}
}

func TestOrphanAdoption(t *testing.T) {
	f := newFixture(t, false)
	b1 := f.powBlock(f.genesis.Hash())
	b2 := f.powBlock(b1.Hash())
	b3 := f.powBlock(b2.Hash())

	// Deliver out of order: b3, b2 orphaned until b1 arrives.
	if res := f.add(b3); res.Status != StatusOrphan {
		t.Fatalf("b3 status %v", res.Status)
	}
	if res := f.add(b2); res.Status != StatusOrphan {
		t.Fatalf("b2 status %v", res.Status)
	}
	res := f.add(b1)
	if res.Status != StatusMainChain {
		t.Fatalf("b1 status %v", res.Status)
	}
	if len(res.Connected) != 3 {
		t.Errorf("connected %d blocks, want 3 (cascade)", len(res.Connected))
	}
	if f.st.Tip().Hash() != b3.Hash() {
		t.Error("cascade did not reach b3")
	}
}

// TestOrphanEvictionIsArrivalOrdered: at the stash bound the bucket that has
// waited longest goes — never whichever one a map range happens to yield. 600
// orphans on distinct unknown parents overflow the 512-block bound 88 times;
// the 88 oldest are the ones gone, on every run, and a bucket that was
// adopted in between leaves no stale place in the queue behind.
func TestOrphanEvictionIsArrivalOrdered(t *testing.T) {
	const total = 600
	for run := 0; run < 20; run++ {
		f := newFixture(t, false)
		// One real orphan chain, adopted mid-way, to exercise the removal
		// of an adopted parent from the arrival queue.
		b1 := f.powBlock(f.genesis.Hash())
		b2 := f.powBlock(b1.Hash())
		parents := make([]crypto.Hash, total)
		for i := range parents {
			parents[i] = crypto.Hash{0xA0, byte(i >> 8), byte(i)}
			if res := f.add(f.powBlock(parents[i])); res.Status != StatusOrphan {
				t.Fatalf("orphan %d: status %v", i, res.Status)
			}
			switch i {
			case 10:
				f.add(b2) // waits on b1
			case 20:
				if res := f.add(b1); len(res.Connected) != 2 {
					t.Fatalf("adopting b2: connected %d blocks, want 2", len(res.Connected))
				}
			}
		}
		const gone = total - maxOrphanBlocks
		for i, p := range parents {
			if _, waiting := f.st.orphans[p]; waiting == (i < gone) {
				t.Fatalf("run %d: orphan %d waiting=%v; the %d oldest, and only they, should be gone", run, i, waiting, gone)
			}
		}
		if f.st.orphanCount != maxOrphanBlocks || len(f.st.orphanOrder) != len(f.st.orphans) {
			t.Fatalf("run %d: count %d, %d queued parents, %d buckets", run, f.st.orphanCount, len(f.st.orphanOrder), len(f.st.orphans))
		}
	}
}

func TestInvalidConnectRestoresChain(t *testing.T) {
	f := newFixture(t, false)
	spend := f.spend(f.funded[0], 400, crypto.Address{1})
	doubleSpend := f.spend(f.funded[0], 300, crypto.Address{2})

	b1 := f.powBlock(f.genesis.Hash(), spend)
	f.add(b1)
	tipBefore := f.st.Tip().Hash()

	// A heavier branch whose second block double-spends: connect fails.
	a1 := f.powBlock(f.genesis.Hash(), doubleSpend)
	a2 := f.powBlock(a1.Hash(), spend) // conflicts with a1's double spend inputs? no: same input as doubleSpend
	f.add(a1)
	_, err := f.st.AddBlock(a2, f.now)
	if err == nil {
		t.Fatal("double-spending branch connected")
	}
	if f.st.Tip().Hash() != tipBefore {
		t.Errorf("tip moved to %s after failed reorg", f.st.Tip().Hash().Short())
	}
	// State is intact: the spend from b1 is still applied.
	if got := f.st.UTXO().BalanceOf(crypto.Address{1}); got != 400 {
		t.Errorf("balance = %d after failed reorg", got)
	}
}

func TestRandomTieBreakEventuallyTakesBoth(t *testing.T) {
	tookNew := false
	keptOld := false
	for seed := int64(0); seed < 32 && !(tookNew && keptOld); seed++ {
		rng := rand.New(rand.NewSource(seed))
		key, _ := crypto.GenerateKey(rng)
		genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
		params := types.DefaultParams()
		st, err := New(genesis, params, openProtocol{}, &HeaviestChain{RandomTieBreak: true, Rand: rng})
		if err != nil {
			t.Fatal(err)
		}
		mk := func(h uint64) *types.PowBlock {
			txs := []*types.Transaction{{
				Kind:    types.TxCoinbase,
				Outputs: []types.TxOutput{{Value: 1, To: key.Public().Addr()}},
				Height:  h,
			}}
			return &types.PowBlock{
				Header: types.PowHeader{
					Prev:       genesis.Hash(),
					MerkleRoot: crypto.MerkleRoot(types.TxIDs(txs)),
					TimeNanos:  int64(h),
					Target:     crypto.EasiestTarget,
				},
				Txs:          txs,
				SimulatedPoW: true,
			}
		}
		b1, b2 := mk(1), mk(2)
		if _, err := st.AddBlock(b1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := st.AddBlock(b2, 1); err != nil {
			t.Fatal(err)
		}
		switch st.Tip().Hash() {
		case b1.Hash():
			keptOld = true
		case b2.Hash():
			tookNew = true
		}
	}
	if !tookNew || !keptOld {
		t.Errorf("random tie-break never varied: tookNew=%v keptOld=%v", tookNew, keptOld)
	}
}

func TestGHOSTPrefersHeavySubtree(t *testing.T) {
	// Build: genesis -> a (subtree: a, a1, a2') and genesis -> b -> b1.
	// Chain lengths equal, but a's subtree has 3 blocks vs b's 2, so
	// GHOST picks a's side while heaviest-chain would tie.
	rng := rand.New(rand.NewSource(5))
	key, _ := crypto.GenerateKey(rng)
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	st, err := New(genesis, types.DefaultParams(), openProtocol{}, &GHOST{Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	var height uint64
	mk := func(prev crypto.Hash) *types.PowBlock {
		height++
		txs := []*types.Transaction{{
			Kind:    types.TxCoinbase,
			Outputs: []types.TxOutput{{Value: 1, To: key.Public().Addr()}},
			Height:  height,
		}}
		return &types.PowBlock{
			Header: types.PowHeader{
				Prev:       prev,
				MerkleRoot: crypto.MerkleRoot(types.TxIDs(txs)),
				TimeNanos:  int64(height),
				Target:     crypto.EasiestTarget,
			},
			Txs:          txs,
			SimulatedPoW: true,
		}
	}
	a := mk(genesis.Hash())
	a1 := mk(a.Hash())
	a2 := mk(a.Hash()) // sibling of a1: extra subtree weight under a
	b := mk(genesis.Hash())
	b1 := mk(b.Hash())
	for _, blk := range []*types.PowBlock{a, a1, a2, b, b1} {
		if _, err := st.AddBlock(blk, int64(height)); err != nil {
			t.Fatal(err)
		}
	}
	tip := st.Tip()
	if tip.Hash() != a1.Hash() && tip.Hash() != a2.Hash() {
		t.Errorf("GHOST tip %s not under heavy subtree", tip.Hash().Short())
	}
}

func TestEpochFees(t *testing.T) {
	f := newFixture(t, false)
	leader, _ := crypto.GenerateKey(rand.New(rand.NewSource(21)))
	k1 := f.keyBlock(f.genesis.Hash(), leader)
	f.add(k1)
	// Two microblocks carrying fee-paying transactions.
	tx1 := f.spend(f.funded[0], 900, crypto.Address{1}) // fee 100
	tx2 := f.spend(f.funded[1], 950, crypto.Address{2}) // fee 50
	m1 := f.microBlock(k1.Hash(), leader, tx1)
	m2 := f.microBlock(m1.Hash(), leader, tx2)
	f.add(m1)
	f.add(m2)

	got := EpochFees(f.st.Tip())
	if got != 150 {
		t.Errorf("EpochFees = %d, want 150", got)
	}
	// From the key block itself the epoch is empty.
	n, _ := f.st.Store().Get(k1.Hash())
	if got := EpochFees(n); got != 0 {
		t.Errorf("EpochFees at key block = %d", got)
	}
}

func TestMainChainListingAndContains(t *testing.T) {
	f := newFixture(t, false)
	b1 := f.powBlock(f.genesis.Hash())
	b2 := f.powBlock(b1.Hash())
	side := f.powBlock(f.genesis.Hash())
	f.add(b1)
	f.add(b2)
	f.add(side)

	mc := f.st.MainChain()
	if len(mc) != 3 {
		t.Fatalf("main chain length %d", len(mc))
	}
	if mc[0].Hash() != f.genesis.Hash() || mc[2].Hash() != b2.Hash() {
		t.Error("main chain misordered")
	}
	sideNode, _ := f.st.Store().Get(side.Hash())
	if f.st.MainChainContains(sideNode) {
		t.Error("side block reported on main chain")
	}
	b1Node, _ := f.st.Store().Get(b1.Hash())
	if !f.st.MainChainContains(b1Node) {
		t.Error("main block not reported on main chain")
	}
}

func TestCommonAncestorAndPath(t *testing.T) {
	f := newFixture(t, false)
	b1 := f.powBlock(f.genesis.Hash())
	b2 := f.powBlock(b1.Hash())
	a2 := f.powBlock(b1.Hash())
	f.add(b1)
	f.add(b2)
	f.add(a2)

	nb2, _ := f.st.Store().Get(b2.Hash())
	na2, _ := f.st.Store().Get(a2.Hash())
	anc := CommonAncestor(nb2, na2)
	if anc.Hash() != b1.Hash() {
		t.Errorf("common ancestor %s, want b1", anc.Hash().Short())
	}
	path := PathBetween(anc, nb2)
	if len(path) != 1 || path[0].Hash() != b2.Hash() {
		t.Error("PathBetween wrong")
	}
	if got := PathBetween(anc, anc); got != nil {
		t.Error("PathBetween(x,x) != nil")
	}
}

func TestStoreInsertPanics(t *testing.T) {
	f := newFixture(t, false)
	b1 := f.powBlock(f.genesis.Hash())
	f.add(b1)
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("duplicate insert", func() { f.st.Store().Insert(b1, 0) })
	orphan := f.powBlock(crypto.HashBytes([]byte("nowhere")))
	assertPanics("missing parent", func() { f.st.Store().Insert(orphan, 0) })
}
