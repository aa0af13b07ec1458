package mempool

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

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

func tx(t *testing.T, key *crypto.PrivateKey, prevIdx uint32, pad int) *types.Transaction {
	t.Helper()
	out := &types.Transaction{
		Kind:    types.TxRegular,
		Inputs:  []types.TxInput{{Prev: types.OutPoint{Index: prevIdx}}},
		Outputs: []types.TxOutput{{Value: 1, To: crypto.Address{1}}},
		Padding: make([]byte, pad),
	}
	out.SignInput(0, key)
	return out
}

func TestAddSelectFIFO(t *testing.T) {
	p := New()
	key := testKey(t, 1)
	a, b, c := tx(t, key, 1, 0), tx(t, key, 2, 0), tx(t, key, 3, 0)
	for _, x := range []*types.Transaction{a, b, c} {
		if err := p.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	got := p.Select(1 << 20)
	if len(got) != 3 || got[0].ID() != a.ID() || got[1].ID() != b.ID() || got[2].ID() != c.ID() {
		t.Error("selection not FIFO")
	}
}

func TestAddRejectsDuplicateAndConflict(t *testing.T) {
	p := New()
	key := testKey(t, 2)
	a := tx(t, key, 1, 0)
	if err := p.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(a); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate err = %v", err)
	}
	// Different tx spending the same outpoint.
	b := tx(t, key, 1, 4)
	if err := p.Add(b); !errors.Is(err, ErrConflict) {
		t.Errorf("conflict err = %v", err)
	}
	// Coinbase never pools.
	cb := &types.Transaction{Kind: types.TxCoinbase, Outputs: []types.TxOutput{{Value: 1}}}
	if err := p.Add(cb); !errors.Is(err, ErrKind) {
		t.Errorf("coinbase err = %v", err)
	}
}

func TestSelectRespectsSizeBudget(t *testing.T) {
	p := New()
	key := testKey(t, 3)
	a := tx(t, key, 1, 0)
	size := a.WireSize()
	if err := p.Add(a); err != nil {
		t.Fatal(err)
	}
	b := tx(t, key, 2, 0)
	if err := p.Add(b); err != nil {
		t.Fatal(err)
	}
	got := p.Select(size) // room for exactly one
	if len(got) != 1 {
		t.Fatalf("selected %d txs, want 1", len(got))
	}
	if got := p.Select(size - 1); len(got) != 0 {
		t.Errorf("selected %d txs with insufficient budget", len(got))
	}
	if got := p.Select(2 * size); len(got) != 2 {
		t.Errorf("selected %d txs, want 2", len(got))
	}
}

func TestSelectSkipsOversizedButKeepsGoing(t *testing.T) {
	p := New()
	key := testKey(t, 4)
	big := tx(t, key, 1, 5000)
	small := tx(t, key, 2, 0)
	if err := p.Add(big); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(small); err != nil {
		t.Fatal(err)
	}
	got := p.Select(small.WireSize())
	if len(got) != 1 || got[0].ID() != small.ID() {
		t.Error("oversized head blocked selection")
	}
}

func TestRemoveConfirmedEvictsConflicts(t *testing.T) {
	p := New()
	key := testKey(t, 5)
	pooled := tx(t, key, 1, 0)
	if err := p.Add(pooled); err != nil {
		t.Fatal(err)
	}
	// A confirmed tx spending the same outpoint but not identical.
	confirmed := tx(t, key, 1, 8)
	p.RemoveConfirmed([]*types.Transaction{confirmed})
	if p.Get(pooled.ID()) != nil {
		t.Error("conflicting pooled tx survived confirmation")
	}
	if p.Len() != 0 {
		t.Errorf("pool len = %d", p.Len())
	}
}

func TestReinsertAfterReorg(t *testing.T) {
	p := New()
	key := testKey(t, 6)
	a := tx(t, key, 1, 0)
	if err := p.Add(a); err != nil {
		t.Fatal(err)
	}
	p.RemoveConfirmed([]*types.Transaction{a})
	if p.Len() != 0 {
		t.Fatal("tx not removed")
	}
	// Disconnected block returns its transactions; coinbase is dropped.
	cb := &types.Transaction{Kind: types.TxCoinbase, Outputs: []types.TxOutput{{Value: 1}}, Height: 4}
	p.Reinsert([]*types.Transaction{a, cb})
	if p.Get(a.ID()) == nil {
		t.Error("regular tx not reinserted")
	}
	if p.Len() != 1 {
		t.Errorf("pool len = %d, want 1", p.Len())
	}
}

func TestCompactionPreservesOrder(t *testing.T) {
	p := New()
	key := testKey(t, 7)
	var kept []*types.Transaction
	for i := uint32(1); i <= 60; i++ {
		x := tx(t, key, i, 0)
		if err := p.Add(x); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			kept = append(kept, x)
		}
	}
	// Remove all odd-index txs to trigger compaction.
	var confirmed []*types.Transaction
	for i := uint32(1); i <= 60; i += 2 {
		confirmed = append(confirmed, tx(t, key, i, 0))
	}
	p.RemoveConfirmed(confirmed)
	got := p.Select(1 << 30)
	if len(got) != len(kept) {
		t.Fatalf("select returned %d, want %d", len(got), len(kept))
	}
	for i := range got {
		if got[i].ID() != kept[i].ID() {
			t.Fatalf("order broken at %d after compaction", i)
		}
	}
}

// txB is tx for benchmarks (testing.TB).
func txB(tb testing.TB, key *crypto.PrivateKey, prevIdx uint32, pad int) *types.Transaction {
	tb.Helper()
	out := &types.Transaction{
		Kind:    types.TxRegular,
		Inputs:  []types.TxInput{{Prev: types.OutPoint{Index: prevIdx}}},
		Outputs: []types.TxOutput{{Value: 1, To: crypto.Address{1}}},
		Padding: make([]byte, pad),
	}
	out.SignInput(0, key)
	return out
}

// TestSelectEarlyExit: once the remaining budget is below the smallest
// pooled transaction, Select must stop and still return the correct set.
func TestSelectEarlyExit(t *testing.T) {
	p := New()
	key := testKey(t, 9)
	var txs []*types.Transaction
	for i := 0; i < 100; i++ {
		x := tx(t, key, uint32(i), 50) // all equal-sized
		txs = append(txs, x)
		if err := p.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	one := txs[0].WireSize()
	got := p.Select(3*one + one/2)
	if len(got) != 3 {
		t.Fatalf("selected %d txs, want 3", len(got))
	}
	for i, x := range got {
		if x != txs[i] {
			t.Fatalf("selection %d out of FIFO order", i)
		}
	}
	// A budget below the minimum selects nothing.
	if got := p.Select(one - 1); len(got) != 0 {
		t.Fatalf("selected %d txs under the minimum size", len(got))
	}
}

// TestSelectMinSizeStaysConservative: removing the smallest transaction may
// leave the bound stale low, but never skips a fitting transaction.
func TestSelectMinSizeStaysConservative(t *testing.T) {
	p := New()
	key := testKey(t, 10)
	small := tx(t, key, 0, 0)
	big := tx(t, key, 1, 400)
	if err := p.Add(small); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(big); err != nil {
		t.Fatal(err)
	}
	p.RemoveConfirmed([]*types.Transaction{small})
	got := p.Select(big.WireSize())
	if len(got) != 1 || got[0] != big {
		t.Fatalf("big tx not selected after the smaller one left: %v", got)
	}
}

// TestSelectCompactsDominatedTail: a Select over a pool whose bucket order
// slice is mostly lazy-deleted entries compacts it first.
func TestSelectCompactsDominatedTail(t *testing.T) {
	p := New()
	key := testKey(t, 11)
	var confirmed []*types.Transaction
	for i := 0; i < 300; i++ {
		x := tx(t, key, uint32(i), 10)
		if err := p.Add(x); err != nil {
			t.Fatal(err)
		}
		if i >= 4 {
			confirmed = append(confirmed, x)
		}
	}
	for _, x := range confirmed {
		p.removeEntry(p.lookup(x.ID()))
	}
	b := p.buckets[0] // no resolver: everything rates 0
	if len(b.order) <= 2*b.live+16 {
		t.Skip("tail not dominated; threshold changed")
	}
	got := p.Select(1 << 20)
	if len(got) != 4 {
		t.Fatalf("selected %d, want 4", len(got))
	}
	b = p.buckets[0]
	if len(b.order) > 2*b.live+16 {
		t.Fatalf("Select left a dominated tail: %d order entries for %d live", len(b.order), b.live)
	}
}

// TestCompactionReleasesBackingArray: after mass removal the compacted
// bucket must not keep the old oversized backing array (the retention bug:
// reslicing in place left stale trailing entry pointers pinning their
// transactions forever).
func TestCompactionReleasesBackingArray(t *testing.T) {
	p := New()
	key := testKey(t, 14)
	var all []*types.Transaction
	for i := 0; i < 2000; i++ {
		x := tx(t, key, uint32(i), 10)
		all = append(all, x)
		if err := p.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	p.RemoveConfirmed(all[:1990])
	b := p.buckets[0]
	if b.live != 10 {
		t.Fatalf("live = %d, want 10", b.live)
	}
	if cap(b.order) > 4*b.live+16 {
		t.Fatalf("compaction kept an oversized backing array: cap %d for %d live", cap(b.order), b.live)
	}
	for _, e := range b.order[len(b.order):cap(b.order)] {
		if e != nil {
			t.Fatal("stale entry pointer in the vacated tail")
		}
	}
}

// TestFeePrioritySelection: with a resolver wired, higher fee rates
// serialize first, FIFO within a rate.
func TestFeePrioritySelection(t *testing.T) {
	p := New()
	key := testKey(t, 15)
	values := map[types.OutPoint]types.Amount{}
	p.SetFeeResolver(func(op types.OutPoint) (types.Amount, bool) {
		v, ok := values[op]
		return v, ok
	})
	mk := func(idx uint32, fee types.Amount) *types.Transaction {
		x := tx(t, key, idx, 0)
		values[x.Inputs[0].Prev] = x.Outputs[0].Value + fee
		return x
	}
	low1, high, low2 := mk(1, 10), mk(2, 10_000), mk(3, 10)
	for _, x := range []*types.Transaction{low1, high, low2} {
		if err := p.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	got := p.Select(1 << 20)
	if len(got) != 3 || got[0].ID() != high.ID() || got[1].ID() != low1.ID() || got[2].ID() != low2.ID() {
		t.Fatal("selection not fee-rate ordered with FIFO tie-break")
	}
}

// TestBoundedAdmission: a full pool sheds its newest lowest-rate entry for
// a better-paying newcomer and rejects newcomers that do not beat the
// floor — deterministically.
func TestBoundedAdmission(t *testing.T) {
	p := New()
	p.SetLimits(Limits{MaxTxs: 3})
	key := testKey(t, 16)
	values := map[types.OutPoint]types.Amount{}
	p.SetFeeResolver(func(op types.OutPoint) (types.Amount, bool) {
		v, ok := values[op]
		return v, ok
	})
	mk := func(idx uint32, fee types.Amount) *types.Transaction {
		x := tx(t, key, idx, 0)
		values[x.Inputs[0].Prev] = x.Outputs[0].Value + fee
		return x
	}
	a, b, c := mk(1, 100), mk(2, 100), mk(3, 5000)
	for _, x := range []*types.Transaction{a, b, c} {
		if err := p.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	// Same floor rate: rejected, pool unchanged.
	if err := p.Add(mk(4, 100)); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("equal-rate newcomer err = %v, want ErrPoolFull", err)
	}
	// Better rate: evicts the NEWEST lowest-rate entry (b), keeps a.
	d := mk(5, 2000)
	if err := p.Add(d); err != nil {
		t.Fatal(err)
	}
	if p.Get(b.ID()) != nil || p.Get(a.ID()) == nil || p.Get(c.ID()) == nil || p.Get(d.ID()) == nil {
		t.Fatal("eviction did not shed the newest lowest-rate entry")
	}
	st := p.Stats()
	if st.Evictions != 1 || st.Rejected != 1 || st.Txs != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Eviction frees the victim's claimed inputs for future spends.
	if err := p.Add(mk(6, 3000)); err != nil {
		t.Fatal(err)
	}
	if p.Get(a.ID()) != nil {
		t.Fatal("second eviction should have shed the remaining low-rate entry")
	}
}

// TestPoolAllocSteady is the satellite soak: sustained add/confirm churn
// far beyond the pool's standing size must not grow the heap — the
// compaction fix's regression guard.
func TestPoolAllocSteady(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc soak")
	}
	p := New()
	key := testKey(t, 17)
	const window = 512
	var live []*types.Transaction
	churn := func(rounds int) {
		for i := 0; i < rounds; i++ {
			x := txB(t, key, uint32(i), 10)
			if err := p.Add(x); err != nil {
				t.Fatal(err)
			}
			live = append(live, x)
			if len(live) > window {
				p.RemoveConfirmed(live[:64])
				live = append(live[:0:0], live[64:]...)
			}
		}
	}
	churn(2_000) // reach steady state
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	churn(50_000)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc+8<<20 {
		t.Fatalf("heap grew %d bytes across steady-state churn", after.HeapAlloc-before.HeapAlloc)
	}
}

// BenchmarkSelectSmallBudgetFullPool measures the early-exit win: a full
// pool, a budget that fits only a few transactions. Before the early exit
// this scanned all N entries per call.
func BenchmarkSelectSmallBudgetFullPool(b *testing.B) {
	p := New()
	key := testKey(b, 12)
	for i := 0; i < 10_000; i++ {
		if err := p.Add(txB(b, key, uint32(i), 300)); err != nil {
			b.Fatal(err)
		}
	}
	budget := 4 * 500 // a handful of ~460-byte transactions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.Select(budget); len(got) == 0 {
			b.Fatal("empty selection")
		}
	}
}

// BenchmarkSelectFullBudgetFullPool is the control: a budget that admits the
// whole pool, where the early exit cannot trigger.
func BenchmarkSelectFullBudgetFullPool(b *testing.B) {
	p := New()
	key := testKey(b, 13)
	for i := 0; i < 10_000; i++ {
		if err := p.Add(txB(b, key, uint32(i), 300)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.Select(1 << 30); len(got) != 10_000 {
			b.Fatal("short selection")
		}
	}
}
