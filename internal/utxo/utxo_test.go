package utxo

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

func testKey(t testing.TB, seed int64) *crypto.PrivateKey {
	t.Helper()
	k, err := crypto.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	return k
}

func ctxAt(height uint64) BlockContext {
	return BlockContext{Height: height, Params: types.DefaultParams()}
}

// fund applies a height-0 coinbase paying amounts to key's address and
// returns the outpoints (exempt from maturity, like genesis payouts).
func fund(t *testing.T, s *Set, key *crypto.PrivateKey, amounts ...types.Amount) []types.OutPoint {
	t.Helper()
	outs := make([]types.TxOutput, len(amounts))
	for i, a := range amounts {
		outs[i] = types.TxOutput{Value: a, To: key.Public().Addr()}
	}
	cb := &types.Transaction{Kind: types.TxCoinbase, Outputs: outs}
	if _, _, err := s.ApplyBlock([]*types.Transaction{cb}, ctxAt(0)); err != nil {
		t.Fatalf("fund: %v", err)
	}
	ops := make([]types.OutPoint, len(amounts))
	for i := range ops {
		ops[i] = types.OutPoint{TxID: cb.ID(), Index: uint32(i)}
	}
	return ops
}

func spendTx(key *crypto.PrivateKey, from types.OutPoint, pay types.Amount, to crypto.Address, change types.Amount) *types.Transaction {
	tx := &types.Transaction{
		Kind:   types.TxRegular,
		Inputs: []types.TxInput{{Prev: from}},
		Outputs: []types.TxOutput{
			{Value: pay, To: to},
			{Value: change, To: key.Public().Addr()},
		},
	}
	tx.SignInput(0, key)
	return tx
}

func TestApplySpendAndFee(t *testing.T) {
	s := New()
	key := testKey(t, 1)
	ops := fund(t, s, key, 100)

	dest := crypto.Address{9}
	tx := spendTx(key, ops[0], 60, dest, 30) // fee 10
	_, fees, err := s.ApplyBlock([]*types.Transaction{tx}, ctxAt(1))
	if err != nil {
		t.Fatalf("ApplyBlock: %v", err)
	}
	if fees[0] != 10 {
		t.Errorf("fee = %d, want 10", fees[0])
	}
	if got := s.BalanceOf(dest); got != 60 {
		t.Errorf("dest balance = %d", got)
	}
	if got := s.BalanceOf(key.Public().Addr()); got != 30 {
		t.Errorf("change balance = %d", got)
	}
	// Spent output is gone.
	if _, ok := s.Lookup(ops[0]); ok {
		t.Error("spent output still present")
	}
}

func TestDoubleSpendRejected(t *testing.T) {
	s := New()
	key := testKey(t, 2)
	ops := fund(t, s, key, 100)
	tx1 := spendTx(key, ops[0], 50, crypto.Address{1}, 50)
	tx2 := spendTx(key, ops[0], 50, crypto.Address{2}, 50)
	if _, _, err := s.ApplyBlock([]*types.Transaction{tx1}, ctxAt(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ApplyBlock([]*types.Transaction{tx2}, ctxAt(2)); !errors.Is(err, ErrMissingInput) {
		t.Errorf("double spend err = %v, want ErrMissingInput", err)
	}
}

func TestIntraBlockChainedSpend(t *testing.T) {
	s := New()
	key := testKey(t, 3)
	ops := fund(t, s, key, 100)
	tx1 := spendTx(key, ops[0], 70, key.Public().Addr(), 30)
	// tx2 spends tx1's first output inside the same block.
	tx2 := spendTx(key, types.OutPoint{TxID: tx1.ID(), Index: 0}, 70, crypto.Address{5}, 0)
	if _, _, err := s.ApplyBlock([]*types.Transaction{tx1, tx2}, ctxAt(1)); err != nil {
		t.Fatalf("chained spend rejected: %v", err)
	}
	if got := s.BalanceOf(crypto.Address{5}); got != 70 {
		t.Errorf("balance = %d", got)
	}
}

func TestAtomicFailureLeavesSetUnchanged(t *testing.T) {
	s := New()
	key := testKey(t, 4)
	ops := fund(t, s, key, 100)
	before := s.Len()

	good := spendTx(key, ops[0], 50, crypto.Address{1}, 50)
	bad := spendTx(key, types.OutPoint{Index: 99}, 1, crypto.Address{2}, 0) // missing input
	_, _, err := s.ApplyBlock([]*types.Transaction{good, bad}, ctxAt(1))
	if err == nil {
		t.Fatal("block with bad tx accepted")
	}
	if s.Len() != before {
		t.Error("failed block mutated the set")
	}
	if _, ok := s.Lookup(ops[0]); !ok {
		t.Error("failed block consumed an input")
	}
}

func TestWrongOwnerRejected(t *testing.T) {
	s := New()
	owner := testKey(t, 5)
	thief := testKey(t, 6)
	ops := fund(t, s, owner, 100)
	tx := spendTx(thief, ops[0], 100, crypto.Address{1}, 0)
	if _, _, err := s.ApplyBlock([]*types.Transaction{tx}, ctxAt(1)); !errors.Is(err, ErrWrongOwner) {
		t.Errorf("err = %v, want ErrWrongOwner", err)
	}
}

// TestValueOverflowRejected pins the value rule at its boundary: outputs one
// unit above the inputs are refused, and outputs equal to them connect with
// fee 0.
func TestValueOverflowRejected(t *testing.T) {
	s := New()
	key := testKey(t, 7)
	ops := fund(t, s, key, 100, 100)
	tx := spendTx(key, ops[0], 100, crypto.Address{1}, 1)
	if _, _, err := s.ApplyBlock([]*types.Transaction{tx}, ctxAt(1)); !errors.Is(err, ErrValueOverflow) {
		t.Errorf("outputs one unit over the inputs: err = %v, want ErrValueOverflow", err)
	}
	exact := spendTx(key, ops[1], 60, crypto.Address{1}, 40)
	_, fees, err := s.ApplyBlock([]*types.Transaction{exact}, ctxAt(1))
	if err != nil {
		t.Fatalf("outputs equal to the inputs: %v", err)
	}
	if fees[0] != 0 {
		t.Errorf("fee = %d, want 0", fees[0])
	}
}

// TestDuplicateOutputRejected is the BIP30 inflation case: a coinbase whose
// outputs are still unspent cannot be applied again, which would overwrite
// them, nor after a spend of them earlier in the same block, whose effect
// would then depend on the order its delta is replayed in (creates before
// spends); a refused block leaves the set as it was.
func TestDuplicateOutputRejected(t *testing.T) {
	s := New()
	key := testKey(t, 10)
	cb := &types.Transaction{Kind: types.TxCoinbase, Height: 1, Outputs: []types.TxOutput{{Value: 50, To: key.Public().Addr()}}}
	if _, _, err := s.ApplyBlock([]*types.Transaction{cb}, ctxAt(1)); err != nil {
		t.Fatal(err)
	}
	op := types.OutPoint{TxID: cb.ID()}
	before, _ := s.Lookup(op)
	if _, _, err := s.ApplyBlock([]*types.Transaction{cb}, ctxAt(2)); !errors.Is(err, ErrDuplicateOutput) {
		t.Errorf("re-applied coinbase: err = %v, want ErrDuplicateOutput", err)
	}
	if after, ok := s.Lookup(op); s.Len() != 1 || !ok || after != before {
		t.Errorf("refused block changed the set: %d entries, output %+v, was %+v", s.Len(), after, before)
	}
	led := s.led
	spend := spendTx(key, op, 30, crypto.Address{1}, 20)
	mature := ctxAt(1 + uint64(types.DefaultParams().CoinbaseMaturity))
	if _, _, err := s.ApplyBlock([]*types.Transaction{spend, cb}, mature); !errors.Is(err, ErrDuplicateOutput) {
		t.Errorf("spend then re-applied coinbase: err = %v, want ErrDuplicateOutput", err)
	}
	if s.led != led {
		t.Error("refused block moved the set off its ledger")
	}
}

func TestCoinbaseMaturity(t *testing.T) {
	s := New()
	key := testKey(t, 8)
	params := types.DefaultParams()
	params.CoinbaseMaturity = 10

	// A coinbase at height 5 paying the key.
	cb := &types.Transaction{
		Kind:    types.TxCoinbase,
		Outputs: []types.TxOutput{{Value: 50, To: key.Public().Addr()}},
		Height:  5,
	}
	ctx := BlockContext{Height: 5, Params: params}
	if _, _, err := s.ApplyBlock([]*types.Transaction{cb}, ctx); err != nil {
		t.Fatal(err)
	}
	op := types.OutPoint{TxID: cb.ID(), Index: 0}
	spend := spendTx(key, op, 50, crypto.Address{1}, 0)

	// Spending at height 14 (9 confirmations) is immature.
	if _, _, err := s.ApplyBlock([]*types.Transaction{spend}, BlockContext{Height: 14, Params: params}); !errors.Is(err, ErrImmature) {
		t.Errorf("immature spend err = %v", err)
	}
	// At height 15 it matures.
	if _, _, err := s.ApplyBlock([]*types.Transaction{spend}, BlockContext{Height: 15, Params: params}); err != nil {
		t.Errorf("mature spend rejected: %v", err)
	}
}

func TestUndoRestoresExactState(t *testing.T) {
	s := New()
	key := testKey(t, 9)
	ops := fund(t, s, key, 100, 40)

	snapshot := s.Clone()
	tx := spendTx(key, ops[0], 60, crypto.Address{3}, 40)
	undo, _, err := s.ApplyBlock([]*types.Transaction{tx}, ctxAt(1))
	if err != nil {
		t.Fatal(err)
	}
	s.UndoBlock(undo, BlockRef{})

	if s.Len() != snapshot.Len() {
		t.Fatalf("len after undo = %d, want %d", s.Len(), snapshot.Len())
	}
	for _, op := range ops {
		got, ok := s.Lookup(op)
		want, _ := snapshot.Lookup(op)
		if !ok || got != want {
			t.Errorf("entry %v = %+v, want %+v", op, got, want)
		}
	}
}

// TestApplyUndoIdentityProperty drives random spend sequences and checks
// apply-then-undo is an identity on the set.
func TestApplyUndoIdentityProperty(t *testing.T) {
	f := func(seed int64, nTx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		key, err := crypto.GenerateKey(rng)
		if err != nil {
			return false
		}
		// Fund with several outputs.
		outs := make([]types.TxOutput, 8)
		for i := range outs {
			outs[i] = types.TxOutput{Value: types.Amount(100 + rng.Intn(1000)), To: key.Public().Addr()}
		}
		cb := &types.Transaction{Kind: types.TxCoinbase, Outputs: outs}
		if _, _, err := s.ApplyBlock([]*types.Transaction{cb}, ctxAt(0)); err != nil {
			return false
		}
		snapshot := s.Clone()

		// Build a block spending a random subset.
		var txs []*types.Transaction
		n := int(nTx%6) + 1
		for i := 0; i < n && i < len(outs); i++ {
			op := types.OutPoint{TxID: cb.ID(), Index: uint32(i)}
			e, _ := s.Lookup(op)
			tx := spendTx(key, op, e.Value/2, crypto.Address{byte(i)}, e.Value/4)
			txs = append(txs, tx)
		}
		undo, _, err := s.ApplyBlock(txs, ctxAt(1))
		if err != nil {
			return false
		}
		s.UndoBlock(undo, BlockRef{})
		if s.Len() != snapshot.Len() {
			return false
		}
		for i := range outs {
			op := types.OutPoint{TxID: cb.ID(), Index: uint32(i)}
			a, okA := s.Lookup(op)
			b, okB := snapshot.Lookup(op)
			if okA != okB || a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPoisonRevocation(t *testing.T) {
	s := New()
	cheater := testKey(t, 10)
	poisoner := testKey(t, 11)
	params := types.DefaultParams() // 5% reward

	// The cheater's key block coinbase minted 1000.
	cb := &types.Transaction{
		Kind:    types.TxCoinbase,
		Outputs: []types.TxOutput{{Value: 1000, To: cheater.Public().Addr()}},
		Height:  3,
	}
	if _, _, err := s.ApplyBlock([]*types.Transaction{cb}, BlockContext{Height: 3, Params: params}); err != nil {
		t.Fatal(err)
	}

	poison := &types.Transaction{
		Kind:     types.TxPoison,
		Outputs:  []types.TxOutput{{Value: 50, To: poisoner.Public().Addr()}}, // exactly 5%
		Evidence: &types.PoisonEvidence{Culprit: crypto.Hash{1}},
	}
	ctx := BlockContext{
		Height:        4,
		Params:        params,
		PoisonTargets: map[crypto.Hash]crypto.Hash{poison.ID(): cb.ID()},
	}
	undo, _, err := s.ApplyBlock([]*types.Transaction{poison}, ctx)
	if err != nil {
		t.Fatalf("poison rejected: %v", err)
	}

	// The cheater's output is revoked and unspendable.
	op := types.OutPoint{TxID: cb.ID(), Index: 0}
	e, ok := s.Lookup(op)
	if !ok || !e.Revoked {
		t.Fatal("culprit output not revoked")
	}
	spend := spendTx(cheater, op, 1000, crypto.Address{1}, 0)
	farCtx := BlockContext{Height: 500, Params: params}
	if _, _, err := s.ApplyBlock([]*types.Transaction{spend}, farCtx); !errors.Is(err, ErrRevokedInput) {
		t.Errorf("revoked spend err = %v", err)
	}
	if !s.Poisoned(cb.ID()) {
		t.Error("coinbase not marked poisoned")
	}

	// Undo restores spendability.
	s.UndoBlock(undo, BlockRef{})
	if e, _ := s.Lookup(op); e.Revoked {
		t.Error("undo did not clear revocation")
	}
	if s.Poisoned(cb.ID()) {
		t.Error("undo did not clear poisoned mark")
	}
}

func TestPoisonOnlyOncePerCheater(t *testing.T) {
	s := New()
	cheater := testKey(t, 12)
	params := types.DefaultParams()
	cb := &types.Transaction{
		Kind:    types.TxCoinbase,
		Outputs: []types.TxOutput{{Value: 1000, To: cheater.Public().Addr()}},
		Height:  3,
	}
	if _, _, err := s.ApplyBlock([]*types.Transaction{cb}, BlockContext{Height: 3, Params: params}); err != nil {
		t.Fatal(err)
	}
	mkPoison := func(n byte) *types.Transaction {
		return &types.Transaction{
			Kind:     types.TxPoison,
			Outputs:  []types.TxOutput{{Value: 1, To: crypto.Address{n}}},
			Evidence: &types.PoisonEvidence{Culprit: crypto.Hash{n}},
		}
	}
	p1, p2 := mkPoison(1), mkPoison(2)
	ctx := BlockContext{
		Height: 4,
		Params: params,
		PoisonTargets: map[crypto.Hash]crypto.Hash{
			p1.ID(): cb.ID(),
			p2.ID(): cb.ID(),
		},
	}
	if _, _, err := s.ApplyBlock([]*types.Transaction{p1}, ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ApplyBlock([]*types.Transaction{p2}, ctx); !errors.Is(err, ErrAlreadyPoisoned) {
		t.Errorf("second poison err = %v", err)
	}
}

func TestPoisonRewardBounded(t *testing.T) {
	s := New()
	cheater := testKey(t, 13)
	params := types.DefaultParams()
	cb := &types.Transaction{
		Kind:    types.TxCoinbase,
		Outputs: []types.TxOutput{{Value: 1000, To: cheater.Public().Addr()}},
		Height:  3,
	}
	if _, _, err := s.ApplyBlock([]*types.Transaction{cb}, BlockContext{Height: 3, Params: params}); err != nil {
		t.Fatal(err)
	}
	greedy := &types.Transaction{
		Kind:     types.TxPoison,
		Outputs:  []types.TxOutput{{Value: 51, To: crypto.Address{1}}}, // > 5%
		Evidence: &types.PoisonEvidence{Culprit: crypto.Hash{1}},
	}
	ctx := BlockContext{
		Height:        4,
		Params:        params,
		PoisonTargets: map[crypto.Hash]crypto.Hash{greedy.ID(): cb.ID()},
	}
	if _, _, err := s.ApplyBlock([]*types.Transaction{greedy}, ctx); !errors.Is(err, ErrExcessReward) {
		t.Errorf("greedy poison err = %v", err)
	}
}

func TestPoisonUnknownTarget(t *testing.T) {
	s := New()
	poison := &types.Transaction{
		Kind:     types.TxPoison,
		Outputs:  []types.TxOutput{{Value: 0, To: crypto.Address{1}}},
		Evidence: &types.PoisonEvidence{},
	}
	if _, _, err := s.ApplyBlock([]*types.Transaction{poison}, ctxAt(1)); !errors.Is(err, ErrUnknownCulprit) {
		t.Errorf("err = %v", err)
	}
}

func TestCloneIsolation(t *testing.T) {
	s := New()
	key := testKey(t, 14)
	ops := fund(t, s, key, 100)
	c := s.Clone()
	tx := spendTx(key, ops[0], 100, crypto.Address{1}, 0)
	if _, _, err := c.ApplyBlock([]*types.Transaction{tx}, ctxAt(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(ops[0]); !ok {
		t.Error("mutating clone affected original")
	}
}

// TestCloneMutationIsolation pins the Set.Clone contract in both directions
// and for both kinds of state a snapshot can alias: the entry table and the
// poison-mark set. A branch staged on a clone must never bleed into the
// active state, and the active state must never bleed into an outstanding
// clone — either leak silently corrupts reorg validation.
func TestCloneMutationIsolation(t *testing.T) {
	owner := testKey(t, 20)
	params := types.DefaultParams()
	s := New()
	cb := &types.Transaction{
		Kind: types.TxCoinbase,
		Outputs: []types.TxOutput{
			{Value: 1000, To: owner.Public().Addr()},
			{Value: 500, To: owner.Public().Addr()},
		},
		Height: 1,
	}
	if _, _, err := s.ApplyBlock([]*types.Transaction{cb}, BlockContext{Height: 1, Params: params}); err != nil {
		t.Fatal(err)
	}

	clone := s.Clone()
	op0 := types.OutPoint{TxID: cb.ID(), Index: 0}
	op1 := types.OutPoint{TxID: cb.ID(), Index: 1}
	far := BlockContext{Height: 500, Params: params}

	// Clone → original: spending op0 on the clone must leave the original's
	// entry untouched.
	if _, _, err := clone.ApplyBlock([]*types.Transaction{spendTx(owner, op0, 1000, crypto.Address{9}, 0)}, far); err != nil {
		t.Fatal(err)
	}
	if _, ok := clone.Lookup(op0); ok {
		t.Fatal("clone still holds its spent output")
	}
	if _, ok := s.Lookup(op0); !ok {
		t.Error("spend staged on the clone reached the original")
	}

	// Original → clone: spending op1 on the original must leave the clone's
	// entry untouched.
	if _, _, err := s.ApplyBlock([]*types.Transaction{spendTx(owner, op1, 500, crypto.Address{9}, 0)}, far); err != nil {
		t.Fatal(err)
	}
	if _, ok := clone.Lookup(op1); !ok {
		t.Error("spend on the original reached the clone")
	}

	// Poison marks: a poison staged on the clone must not make the active
	// state reject the real poison later (ErrAlreadyPoisoned), and poisoning
	// the active state must not mark the clone.
	mkPoison := func(n byte) *types.Transaction {
		return &types.Transaction{
			Kind:     types.TxPoison,
			Outputs:  []types.TxOutput{{Value: 25, To: owner.Public().Addr()}},
			Evidence: &types.PoisonEvidence{Culprit: crypto.Hash{n}},
		}
	}
	p1 := mkPoison(1)
	if _, _, err := clone.ApplyBlock([]*types.Transaction{p1}, BlockContext{
		Height: 501, Params: params,
		PoisonTargets: map[crypto.Hash]crypto.Hash{p1.ID(): cb.ID()},
	}); err != nil {
		t.Fatalf("poison on clone: %v", err)
	}
	if !clone.Poisoned(cb.ID()) {
		t.Fatal("clone not poisoned after applying poison")
	}
	if s.Poisoned(cb.ID()) {
		t.Error("poison staged on the clone marked the original")
	}
	p2 := mkPoison(2)
	if _, _, err := s.ApplyBlock([]*types.Transaction{p2}, BlockContext{
		Height: 502, Params: params,
		PoisonTargets: map[crypto.Hash]crypto.Hash{p2.ID(): cb.ID()},
	}); err != nil {
		t.Fatalf("poison on original after staged clone poison: %v", err)
	}
	clone2 := s.Clone()
	if !clone2.Poisoned(cb.ID()) {
		t.Error("fresh clone lost the original's poison mark")
	}
}
