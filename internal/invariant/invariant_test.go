package invariant

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
)

// permissive accepts any well-formed block and enforces NO economics: it
// stands in for a buggy validation pipeline, so the injection tests can
// build chains that real rules would reject and prove the invariant engine
// catches them independently.
type permissive struct{}

func (permissive) RulesID() string { return "test/permissive" }

func (permissive) CheckBlock(st *chain.State, parent *chain.Node, b types.Block, now int64) error {
	// Structural decode only — economics and signatures deliberately skipped
	// (microblocks especially: a wrong-leader signature must get through so
	// the single-leader invariant can catch it).
	return nil
}

func (permissive) ConnectCheck(st *chain.State, n *chain.Node, fees []types.Amount) error {
	return nil
}

func (permissive) PoisonTargets(st *chain.State, parent *chain.Node, b types.Block) (map[crypto.Hash]crypto.Hash, error) {
	return nil, nil
}

// fixture builds chains through the permissive rules.
type fixture struct {
	t       *testing.T
	st      *chain.State
	params  types.Params
	key     *crypto.PrivateKey
	genesis *types.PowBlock
	funded  []types.OutPoint
	now     int64
	height  uint64
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	key, err := crypto.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	genesis := types.GenesisBlock(types.GenesisSpec{
		Target: crypto.EasiestTarget,
		Payouts: []types.TxOutput{
			{Value: 10_000, To: key.Public().Addr()},
			{Value: 10_000, To: key.Public().Addr()},
		},
	})
	params := types.DefaultParams()
	params.Subsidy = 1000
	st, err := chain.New(genesis, params, permissive{}, &chain.HeaviestChain{Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	cbID := genesis.Txs[0].ID()
	return &fixture{
		t: t, st: st, params: params, key: key, genesis: genesis,
		funded: []types.OutPoint{{TxID: cbID, Index: 0}, {TxID: cbID, Index: 1}},
	}
}

func (f *fixture) keyBlock(prev crypto.Hash, leader *crypto.PrivateKey, outputs ...types.TxOutput) *types.KeyBlock {
	f.height++
	if outputs == nil {
		outputs = []types.TxOutput{{Value: f.params.Subsidy, To: leader.Public().Addr()}}
	}
	txs := []*types.Transaction{{Kind: types.TxCoinbase, Outputs: outputs, Height: f.height}}
	f.now += int64(time.Second)
	return &types.KeyBlock{
		Header: types.KeyBlockHeader{
			PowHeader: types.PowHeader{
				Prev:       prev,
				MerkleRoot: crypto.MerkleRoot(types.TxIDs(txs)),
				TimeNanos:  f.now,
				Target:     crypto.EasiestTarget,
			},
			LeaderKey: leader.Public(),
		},
		Txs:          txs,
		SimulatedPoW: true,
	}
}

func (f *fixture) microBlock(prev crypto.Hash, signer *crypto.PrivateKey, txs ...*types.Transaction) *types.MicroBlock {
	f.now += int64(10 * time.Millisecond)
	mb := &types.MicroBlock{
		Header: types.MicroBlockHeader{
			Prev:      prev,
			TxRoot:    crypto.MerkleRoot(types.TxIDs(txs)),
			TimeNanos: f.now,
		},
		Txs: txs,
	}
	mb.Header.Sign(signer)
	return mb
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

func (f *fixture) add(b types.Block) {
	f.t.Helper()
	res, err := f.st.AddBlock(b, f.now)
	if err != nil {
		f.t.Fatalf("AddBlock(%s): %v", b.Hash().Short(), err)
	}
	if res.Status != chain.StatusMainChain {
		f.t.Fatalf("AddBlock(%s): status %v", b.Hash().Short(), res.Status)
	}
}

// snapshot wraps the fixture's single node.
func (f *fixture) snapshot(final bool) *Snapshot {
	return &Snapshot{
		Now:    f.now,
		Final:  final,
		Params: f.params,
		Nodes:  []NodeState{{ID: 0, Chain: f.st, Strategy: "honest"}},
	}
}

// fired returns the distinct invariant names with violations.
func fired(e *Engine) map[string]bool {
	out := make(map[string]bool)
	for _, v := range e.Violations() {
		out[v.Invariant] = true
	}
	return out
}

// assertOnly checks that exactly `want` fired (and its message mentions
// wantMsg).
func assertOnly(t *testing.T, e *Engine, want, wantMsg string) {
	t.Helper()
	got := fired(e)
	if !got[want] {
		t.Fatalf("invariant %q did not fire; violations: %v", want, e.Violations())
	}
	for name := range got {
		if name != want {
			t.Errorf("unrelated invariant %q fired: %v", name, e.Violations())
		}
	}
	if wantMsg != "" {
		found := false
		for _, v := range e.Violations() {
			if v.Invariant == want && strings.Contains(v.Msg, wantMsg) {
				found = true
			}
		}
		if !found {
			t.Errorf("violation message does not mention %q: %v", wantMsg, e.Violations())
		}
	}
}

// defaultEngine builds the full catalogue with zero grace so consistency
// checks are live immediately.
func defaultEngine() *Engine {
	return NewEngine(Defaults(Options{SettleGrace: time.Nanosecond})...)
}

// TestCleanChainNoViolations: a correctly built NG chain (valid fee split,
// leader-signed microblocks) passes the whole catalogue.
func TestCleanChainNoViolations(t *testing.T) {
	f := newFixture(t)
	leaderA, _ := crypto.GenerateKey(rand.New(rand.NewSource(1)))
	leaderB, _ := crypto.GenerateKey(rand.New(rand.NewSource(2)))

	k1 := f.keyBlock(f.genesis.Hash(), leaderA)
	f.add(k1)
	// Epoch fees: 100 + 60.
	m1 := f.microBlock(k1.Hash(), leaderA, f.spend(f.funded[0], 9_900, crypto.Address{1}))
	f.add(m1)
	m2 := f.microBlock(m1.Hash(), leaderA, f.spend(f.funded[1], 9_940, crypto.Address{2}))
	f.add(m2)
	// Next leader mints subsidy + epoch fees, paying A its 40% (64 of 160).
	leaderShare, nextShare := f.params.SplitFee(160)
	k2 := f.keyBlock(m2.Hash(), leaderB,
		types.TxOutput{Value: f.params.Subsidy + nextShare, To: leaderB.Public().Addr()},
		types.TxOutput{Value: leaderShare, To: leaderA.Public().Addr()})
	f.add(k2)

	e := defaultEngine()
	e.Check(f.snapshot(false))
	e.Check(f.snapshot(true))
	if len(e.Violations()) != 0 {
		t.Fatalf("clean chain produced violations: %v", e.Violations())
	}
}

// TestBadFeeSplitFires: the next leader keeps the whole epoch-fee pot
// (shorting the previous leader's 40%); only fee-split fires. The total
// minted stays within subsidy+fees, so value conservation must NOT fire —
// that is what makes the injection selective.
func TestBadFeeSplitFires(t *testing.T) {
	f := newFixture(t)
	leaderA, _ := crypto.GenerateKey(rand.New(rand.NewSource(1)))
	leaderB, _ := crypto.GenerateKey(rand.New(rand.NewSource(2)))

	k1 := f.keyBlock(f.genesis.Hash(), leaderA)
	f.add(k1)
	m1 := f.microBlock(k1.Hash(), leaderA, f.spend(f.funded[0], 9_800, crypto.Address{1})) // fee 200
	f.add(m1)
	// B mints the full pot to itself: amount legal, split stolen.
	k2 := f.keyBlock(m1.Hash(), leaderB,
		types.TxOutput{Value: f.params.Subsidy + 200, To: leaderB.Public().Addr()})
	f.add(k2)

	e := defaultEngine()
	e.Check(f.snapshot(true))
	assertOnly(t, e, "fee-split", "pays previous leader 0")
}

// TestOverMintFires: a key block minting more than subsidy + epoch fees is
// caught by fee-split's amount bound (the §4.4 remuneration cap).
func TestOverMintFires(t *testing.T) {
	f := newFixture(t)
	leader, _ := crypto.GenerateKey(rand.New(rand.NewSource(1)))
	k1 := f.keyBlock(f.genesis.Hash(), leader,
		types.TxOutput{Value: f.params.Subsidy + 1, To: leader.Public().Addr()})
	f.add(k1)

	e := NewEngine(FeeSplit())
	e.Check(f.snapshot(true))
	assertOnly(t, e, "fee-split", "mints")
}

// TestValueCreationFires: a UTXO delta that conjures value out of thin air —
// simulating a corrupted cache replay — trips value-conservation and only
// it. The injection bypasses the chain layer entirely and mutates the live
// set, exactly like a replay-against-wrong-prestate bug would.
func TestValueCreationFires(t *testing.T) {
	f := newFixture(t)
	leader, _ := crypto.GenerateKey(rand.New(rand.NewSource(1)))
	k1 := f.keyBlock(f.genesis.Hash(), leader)
	f.add(k1)

	// Mint 777 units through a rogue coinbase applied directly to the set:
	// no block explains these outputs.
	rogue := &types.Transaction{
		Kind:    types.TxCoinbase,
		Outputs: []types.TxOutput{{Value: 777, To: crypto.Address{0xBA, 0xD0}}},
		Height:  99,
	}
	if _, _, err := f.st.UTXO().ApplyBlock([]*types.Transaction{rogue},
		utxo.BlockContext{Height: 99, Params: f.params}); err != nil {
		t.Fatal(err)
	}

	e := defaultEngine()
	e.Check(f.snapshot(true))
	assertOnly(t, e, "value-conservation", "chain explains")
}

// TestDoubleLeaderEpochFires: a microblock signed by a key that is not the
// epoch leader's — a second leader serializing inside someone else's epoch —
// trips single-leader and only it.
func TestDoubleLeaderEpochFires(t *testing.T) {
	f := newFixture(t)
	leaderA, _ := crypto.GenerateKey(rand.New(rand.NewSource(1)))
	usurper, _ := crypto.GenerateKey(rand.New(rand.NewSource(2)))

	k1 := f.keyBlock(f.genesis.Hash(), leaderA)
	f.add(k1)
	m1 := f.microBlock(k1.Hash(), leaderA) // legitimate
	f.add(m1)
	m2 := f.microBlock(m1.Hash(), usurper) // signed by the wrong leader
	f.add(m2)

	e := defaultEngine()
	e.Check(f.snapshot(false)) // tip-epoch scan must already see it
	assertOnly(t, e, "single-leader", "not signed by epoch leader")

	// The full-history final scan agrees.
	e2 := defaultEngine()
	e2.Check(f.snapshot(true))
	assertOnly(t, e2, "single-leader", "not signed by epoch leader")
}

// divergentPair builds two states sharing genesis whose chains diverge by
// depth key blocks each side.
func divergentPair(t *testing.T, depth int) (a, b *chain.State, params types.Params, now int64) {
	t.Helper()
	f := newFixture(t)
	g, err := chain.New(f.genesis, f.params, permissive{},
		&chain.HeaviestChain{Rand: rand.New(rand.NewSource(12))})
	if err != nil {
		t.Fatal(err)
	}
	leader, _ := crypto.GenerateKey(rand.New(rand.NewSource(3)))
	prevA, prevB := f.genesis.Hash(), f.genesis.Hash()
	for i := 0; i < depth; i++ {
		ka := f.keyBlock(prevA, leader)
		f.add(ka)
		prevA = ka.Hash()
		kb := f.keyBlock(prevB, leader)
		if _, err := g.AddBlock(kb, f.now); err != nil {
			t.Fatal(err)
		}
		prevB = kb.Hash()
	}
	return f.st, g, f.params, f.now
}

// TestForkBoundFires: two honest nodes on branches diverging beyond k trip
// fork-bound (whole network) and convergence (settled), but NOT
// partition-consistency (no partition is in force).
func TestForkBoundFires(t *testing.T) {
	a, b, params, now := divergentPair(t, 4)
	s := &Snapshot{
		Now: now, Params: params,
		Nodes: []NodeState{
			{ID: 0, Chain: a, Strategy: "honest"},
			{ID: 1, Chain: b, Strategy: "honest"},
		},
	}
	e := NewEngine(ForkBound(3, time.Nanosecond), PartitionConsistency(3, time.Nanosecond))
	e.Check(s)
	assertOnly(t, e, "fork-bound", "more than 3 key blocks")

	// The same divergence inside one partition group trips the scoped check
	// instead.
	s.Partitioned = true
	e2 := NewEngine(ForkBound(3, time.Nanosecond), PartitionConsistency(3, time.Nanosecond),
		Convergence(2, time.Nanosecond))
	e2.Check(s)
	assertOnly(t, e2, "partition-consistency", "partition group 0")
}

// TestConvergenceGating: the convergence invariant stays quiet inside its
// settle grace and fires after it.
func TestConvergenceGating(t *testing.T) {
	a, b, params, now := divergentPair(t, 3)
	s := &Snapshot{
		Now: now, Params: params, LastDisruption: now,
		Nodes: []NodeState{
			{ID: 0, Chain: a, Strategy: "honest"},
			{ID: 1, Chain: b, Strategy: "honest"},
		},
	}
	grace := 10 * time.Second
	e := NewEngine(Convergence(2, grace))
	e.Check(s)
	if len(e.Violations()) != 0 {
		t.Fatalf("convergence fired inside settle grace: %v", e.Violations())
	}
	s.Now += int64(grace)
	e.Check(s)
	if got := fired(e); !got["convergence"] {
		t.Fatalf("convergence did not fire after settling: %v", e.Violations())
	}
}

// TestAttackersExcludedFromConsistency: a node running a withholding
// strategy may diverge arbitrarily without tripping the consistency
// invariants.
func TestAttackersExcludedFromConsistency(t *testing.T) {
	a, b, params, now := divergentPair(t, 5)
	s := &Snapshot{
		Now: now, Params: params,
		Nodes: []NodeState{
			{ID: 0, Chain: a, Strategy: "honest"},
			{ID: 1, Chain: b, Strategy: "selfish"},
		},
	}
	e := NewEngine(ForkBound(2, time.Nanosecond), Convergence(2, time.Nanosecond))
	e.Check(s)
	if len(e.Violations()) != 0 {
		t.Fatalf("attacker divergence tripped consistency: %v", e.Violations())
	}
}

// TestViolationDedup: a persistent breakage is recorded once with a count.
func TestViolationDedup(t *testing.T) {
	f := newFixture(t)
	leader, _ := crypto.GenerateKey(rand.New(rand.NewSource(1)))
	k1 := f.keyBlock(f.genesis.Hash(), leader,
		types.TxOutput{Value: f.params.Subsidy + 5, To: leader.Public().Addr()})
	f.add(k1)

	e := NewEngine(FeeSplit())
	e.Check(f.snapshot(false))
	e.Check(f.snapshot(false))
	e.Check(f.snapshot(true))
	if len(e.Violations()) != 1 {
		t.Fatalf("want 1 deduplicated violation, got %v", e.Violations())
	}
	if c := e.Violations()[0].Count; c != 3 {
		t.Fatalf("violation count = %d, want 3", c)
	}
}
