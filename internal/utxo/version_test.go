package utxo

import (
	"runtime"
	"sync"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// testChain applies a funding block and then blocks of 1, 2, … n spends to a
// fresh leader set, returning it with each block's delta (funding first).
func testChain(t testing.TB, n int) (*Set, []*Delta) {
	t.Helper()
	key := testKey(t, 31)
	leader := New()
	outs := make([]types.TxOutput, n*(n+1)/2)
	for i := range outs {
		outs[i] = types.TxOutput{Value: 100, To: key.Public().Addr()}
	}
	cb := &types.Transaction{Kind: types.TxCoinbase, Outputs: outs}
	d, _, err := leader.ApplyBlock([]*types.Transaction{cb}, ctxAt(0))
	if err != nil {
		t.Fatal(err)
	}
	deltas := []*Delta{d}
	next := uint32(0)
	for size := 1; size <= n; size++ {
		txs := make([]*types.Transaction, size)
		for i := range txs {
			txs[i] = spendTx(key, types.OutPoint{TxID: cb.ID(), Index: next}, 60, crypto.Address{byte(size)}, 30)
			next++
		}
		d, _, err := leader.ApplyBlock(txs, ctxAt(uint64(size)))
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, d)
	}
	return leader, deltas
}

// sameContents fails unless a and b hold the same entries. It reads through
// Range alone, which moves no operation counter.
func sameContents(t *testing.T, what string, a, b *Set) {
	t.Helper()
	want := map[types.OutPoint]Entry{}
	a.Range(func(op types.OutPoint, e Entry) bool { want[op] = e; return true })
	n := 0
	b.Range(func(op types.OutPoint, e Entry) bool {
		if w, ok := want[op]; !ok || w != e {
			t.Fatalf("%s: %v is %+v on one side, %+v (present %v) on the other", what, op, e, w, ok)
		}
		n++
		return true
	})
	if n != len(want) || a.Len() != n || b.Len() != n {
		t.Fatalf("%s: %d entries (Len %d) against %d (Len %d)", what, len(want), a.Len(), n, b.Len())
	}
}

// TestRedoUndoAdopt: a set on the version a delta starts from takes the
// recorded state itself — the same ledger, by pointer — in both directions,
// and counts exactly the logical operations a replaying set counts.
func TestRedoUndoAdopt(t *testing.T) {
	// Hold every version so no recorded state is collected under the test.
	var pins []*Set
	key := testKey(t, 31)
	leader := New()
	pins = append(pins, leader.Clone())
	cb := &types.Transaction{Kind: types.TxCoinbase, Height: 1, Outputs: []types.TxOutput{
		{Value: 100, To: key.Public().Addr()}, {Value: 100, To: key.Public().Addr()}, {Value: 7, To: key.Public().Addr()},
	}}
	poison := &types.Transaction{Kind: types.TxPoison, Evidence: &types.PoisonEvidence{}}
	blocks := [][]*types.Transaction{
		{cb},
		{spendTx(key, types.OutPoint{TxID: cb.ID(), Index: 0}, 60, crypto.Address{1}, 30)},
		{poison},
	}
	ctx := BlockContext{Height: 1, Params: types.DefaultParams(), PoisonTargets: map[crypto.Hash]crypto.Hash{poison.ID(): cb.ID()}}
	ctx.Params.CoinbaseMaturity = 0
	var deltas []*Delta
	for _, txs := range blocks {
		d, _, err := leader.ApplyBlock(txs, ctx)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, d)
		pins = append(pins, leader.Clone())
	}

	follower := New()
	// The twin takes the other way across: it replays every op log.
	twin := New()
	for i, d := range deltas {
		follower.RedoBlock(d, BlockRef{})
		twin.redoOps(d)
		if follower.led != pins[i+1].led || follower.Version() != pins[i+1].Version() {
			t.Fatalf("block %d: redo did not adopt the recorded post-state", i)
		}
		if twin.led == follower.led {
			t.Fatalf("block %d: the replaying twin holds the recorded state", i)
		}
	}
	sameContents(t, "after redo", follower, twin)
	if !follower.Poisoned(cb.ID()) || !twin.Poisoned(cb.ID()) {
		t.Fatal("poison mark lost")
	}
	for i := len(deltas) - 1; i >= 0; i-- {
		follower.UndoBlock(deltas[i], BlockRef{})
		twin.undoOps(deltas[i])
		if follower.led != pins[i].led || follower.Version() != pins[i].Version() {
			t.Fatalf("block %d: undo did not adopt the recorded pre-state", i)
		}
	}
	sameContents(t, "after undo", follower, twin)
	if follower.Len() != 0 || follower.Version() != New().Version() {
		t.Fatal("undoing every block did not lead back to the shared empty version")
	}
	if follower.Stats() != twin.Stats() {
		t.Fatalf("adoption counted %+v, replay counts %+v", follower.Stats(), twin.Stats())
	}
	if follower.Stats().Gets == 0 || follower.Stats().Puts == 0 || follower.Stats().Deletes == 0 {
		t.Fatalf("counters did not move: %+v", follower.Stats())
	}
}

// TestAdoptionAllocatesNothing: crossing a delta by adoption costs the same —
// no allocation at all — whether the block has one transaction or sixteen.
func TestAdoptionAllocatesNothing(t *testing.T) {
	leader, deltas := testChain(t, 16)
	follower := leader.Clone()
	for _, i := range []int{16, 1} {
		// Walk a second holder down to block i's post-state; it keeps that
		// state alive while the follower steps off it and back.
		holder := leader.Clone()
		for j := len(deltas) - 1; j > i; j-- {
			holder.UndoBlock(deltas[j], BlockRef{})
			follower.UndoBlock(deltas[j], BlockRef{})
		}
		below := holder.Clone()
		below.UndoBlock(deltas[i], BlockRef{})
		allocs := testing.AllocsPerRun(20, func() {
			follower.UndoBlock(deltas[i], BlockRef{})
			follower.RedoBlock(deltas[i], BlockRef{})
		})
		if allocs != 0 {
			t.Errorf("undo+redo of the %d-transaction block allocates %v times, want 0", i, allocs)
		}
		if follower.led != holder.led {
			t.Errorf("%d-transaction block: follower is not on the shared state", i)
		}
		runtime.KeepAlive(below)
	}
}

// TestFallbackReplaysAndRepublishes: when nobody holds the recorded state any
// more the delta's weak reference is dead, the set replays the log — ending
// on the delta's version all the same — and re-publishes the state it
// rebuilt, which the next set adopts.
func TestFallbackReplaysAndRepublishes(t *testing.T) {
	leader, deltas := testChain(t, 3)
	// What the first three blocks leave behind, by a set that only replays.
	twin := New()
	for _, d := range deltas[:3] {
		twin.redoOps(d)
	}
	// Nobody stands on the states below the leader's tip: they are garbage.
	runtime.GC()
	runtime.GC()
	if deltas[2].recorded(&deltas[2].after) != nil {
		t.Fatal("a superseded ledger nobody holds survived two collections: the delta pins it")
	}

	first := New()
	for _, d := range deltas[:3] {
		first.RedoBlock(d, BlockRef{})
	}
	if first.Version() != deltas[2].post {
		t.Fatal("the replay did not label its result with the delta's version")
	}
	sameContents(t, "fallback replay", first, twin)
	second := New()
	for _, d := range deltas[:3] {
		second.RedoBlock(d, BlockRef{})
	}
	if second.led != first.led {
		t.Fatal("second set did not adopt the state the first re-published")
	}
	// The last block's state is still the leader's: the first set is back
	// on shared state one block after its fallback.
	first.RedoBlock(deltas[3], BlockRef{})
	if first.led != leader.led {
		t.Fatal("set did not re-converge on the shared state after its fallback")
	}
}

// TestReplayedCreateLinksLoggedLeaf: the table holds a created entry in the
// very leaf the delta's op log carries, on the set that applied the block and
// on a set that replays it, and a spend's undo restores the leaf its log
// entry carries: crossing a block allocates no leaf of its own.
func TestReplayedCreateLinksLoggedLeaf(t *testing.T) {
	leader, deltas := testChain(t, 4)
	replayer := New()
	for _, d := range deltas {
		replayer.redoOps(d)
	}
	sameContents(t, "replayed chain", replayer, leader)
	linked := func(s *Set, op *deltaOp) bool { return s.led.root.get(&op.op, pathOf(&op.op)) == &op.leaf }
	creates := 0
	for _, d := range deltas {
		for i := range d.ops {
			op := &d.ops[i]
			if op.kind != opCreate {
				continue
			}
			if _, live := leader.Lookup(op.op); !live {
				continue
			}
			creates++
			if !linked(leader, op) || !linked(replayer, op) {
				t.Fatalf("created entry %v is not held in its logged leaf", op.op)
			}
		}
	}
	if creates == 0 {
		t.Fatal("no live created entry to check")
	}
	last := deltas[len(deltas)-1]
	replayer.undoOps(last)
	for i := range last.ops {
		if op := &last.ops[i]; op.kind == opSpend && !linked(replayer, op) {
			t.Fatalf("undone spend of %v is not held in its logged leaf", op.op)
		}
	}
}

// TestFailedApplyKeepsState: a rejected block leaves the set on the very
// ledger it stood on, version included, while the work still counts.
func TestFailedApplyKeepsState(t *testing.T) {
	leader, _ := testChain(t, 2)
	led, version, before := leader.led, leader.Version(), leader.Stats()
	key := testKey(t, 31)
	var live types.OutPoint
	var value types.Amount
	leader.Range(func(op types.OutPoint, e Entry) bool {
		live, value = op, e.Value
		return e.To != key.Public().Addr()
	})
	txs := []*types.Transaction{
		spendTx(key, live, value, crypto.Address{7}, 0),
		spendTx(key, types.OutPoint{TxID: crypto.Hash{0xAB}}, 1, crypto.Address{7}, 0),
	}
	if _, _, err := leader.ApplyBlock(txs, ctxAt(5)); err == nil {
		t.Fatal("block with a missing input applied")
	}
	if leader.led != led || leader.Version() != version {
		t.Fatal("failed ApplyBlock moved the set off its ledger")
	}
	if after := leader.Stats(); after.Puts == before.Puts || after.Deletes == before.Deletes {
		t.Fatalf("the applied-and-reversed half of the block was not counted: %+v → %+v", before, after)
	}
}

// TestSharedDeltasAcrossGoroutines crosses one chain of deltas from several
// goroutines at once, forward and back, while collections kill recorded
// states under them — adoption, fallback and re-publication all race on the
// same deltas, as the shards of the parallel engine do. Run under -race.
func TestSharedDeltasAcrossGoroutines(t *testing.T) {
	leader, deltas := testChain(t, 6)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := New()
			for round := 0; round < 20; round++ {
				for _, d := range deltas {
					s.RedoBlock(d, BlockRef{})
				}
				if s.Version() != leader.Version() || s.Len() != leader.Len() {
					t.Errorf("goroutine %d: did not reach the leader's version", g)
					return
				}
				if round%5 == g {
					runtime.GC()
				}
				for i := len(deltas) - 1; i >= 0; i-- {
					s.UndoBlock(deltas[i], BlockRef{})
				}
				if s.Len() != 0 {
					t.Errorf("goroutine %d: %d entries left after undoing every block", g, s.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
	if leader.Len() == 0 {
		t.Fatal("leader lost its entries")
	}
}
