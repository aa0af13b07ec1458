package mempool_test

import (
	"errors"
	"runtime"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/load"
	"bitcoinng/internal/mempool"
	"bitcoinng/internal/types"
)

// streamTxs returns the first n transactions of a signed load stream — the
// blast16 transaction shape — with ids and sizes already memoized, as they
// are by the time a relayed copy reaches a pool.
func streamTxs(tb testing.TB, n int) []*types.Transaction {
	tb.Helper()
	s, err := load.NewStream(load.StreamConfig{Seed: 2, Lanes: 64, MaxTxs: int64(n)})
	if err != nil {
		tb.Fatal(err)
	}
	s.Bind(crypto.HashBytes([]byte("bench-funding")), 0)
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = s.Tx(int64(i))
		txs[i].ID()
		txs[i].WireSize()
	}
	return txs
}

// TestRefusalsDoNotAllocate pins the refusal path: on a relaying mesh almost
// every delivery is a duplicate, so a refused Add is map probes and a bare
// sentinel — no formatting, no wrapping.
func TestRefusalsDoNotAllocate(t *testing.T) {
	txs := streamTxs(t, 2)
	p := mempool.New()
	if err := p.Add(txs[0]); err != nil {
		t.Fatal(err)
	}
	// A different transaction spending txs[0]'s input.
	rival := &types.Transaction{
		Kind:    types.TxRegular,
		Inputs:  []types.TxInput{{Prev: txs[0].Inputs[0].Prev}},
		Outputs: []types.TxOutput{{Value: 1}},
	}
	rival.ID()
	full := mempool.New()
	full.SetLimits(mempool.Limits{MaxTxs: 1})
	if err := full.Add(txs[0]); err != nil {
		t.Fatal(err)
	}
	coinbase := &types.Transaction{Kind: types.TxCoinbase, Outputs: []types.TxOutput{{Value: 1}}}
	for _, tc := range []struct {
		name string
		pool *mempool.Pool
		tx   *types.Transaction
		want error
	}{
		{"duplicate", p, txs[0], mempool.ErrDuplicate},
		{"conflict", p, rival, mempool.ErrConflict},
		{"pool full", full, txs[1], mempool.ErrPoolFull},
		{"kind", p, coinbase, mempool.ErrKind},
	} {
		var err error
		allocs := testing.AllocsPerRun(100, func() { err = tc.pool.Add(tc.tx) })
		if err != tc.want {
			t.Errorf("%s: Add returned %v, want the bare sentinel %v", tc.name, err, tc.want)
		}
		if allocs != 0 {
			t.Errorf("%s: refused Add allocates %v times, want 0", tc.name, allocs)
		}
	}
}

// TestChurnDoesNotAllocate pins the steady state of a relaying node's pool:
// once warm, admitting a blockful and confirming an older one reuses entries
// from the free list, tombstone lists and map slots, and allocates nothing.
// Each batch returns four generations after it was confirmed, by when its
// tombstones have expired.
func TestChurnDoesNotAllocate(t *testing.T) {
	const batch, batches = 64, 8
	txs := streamTxs(t, batch*batches)
	p := mempool.New()
	p.SetLimits(mempool.Limits{MaxTxs: 8 * batch})
	step := 0
	cycle := func() {
		for _, tx := range txs[step%batches*batch:][:batch] {
			if err := p.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
		p.RemoveConfirmed(txs[(step+batches/2)%batches*batch:][:batch])
		step++
	}
	for i := 0; i < 4*batches; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("a warm add/confirm cycle allocates %v times, want 0", allocs)
	}
	if p.Len() != batches/2*batch {
		t.Fatalf("pool holds %d, want %d", p.Len(), batches/2*batch)
	}
}

// TestRefillDoesNotAllocate pins a relaying node's pool between microblocks:
// a blockful arrives, one microblock confirms all of it, and the emptied
// bucket is dropped and re-created by the next blockful. Once warm, the
// bucket and its FIFO array come back from the pool's spare and nothing is
// allocated. Batches rotate through eight generations, so each returns
// after its tombstones expired.
func TestRefillDoesNotAllocate(t *testing.T) {
	const batch, batches = 256, 8
	txs := streamTxs(t, batch*batches)
	p := mempool.New()
	step := 0
	cycle := func() {
		fill := txs[step%batches*batch:][:batch]
		for _, tx := range fill {
			if err := p.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
		p.RemoveConfirmed(fill)
		step++
	}
	for i := 0; i < 2*batches; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a warm fill/confirm-all cycle allocates %v times, want 0", allocs)
	}
	if p.Len() != 0 {
		t.Fatalf("pool holds %d after confirming everything", p.Len())
	}
}

// TestAdmissionBytesPerTransaction pins what a fresh pool allocates per
// admitted stream transaction while it fills to 4 096: the entry (80 bytes),
// its share of the FIFO array's doubling (16), and a 16-byte slot in each
// index with the maps' control bytes, load factor and growth (about 83 per
// index), 262 bytes on Go 1.24. Indexes keyed by the 32-byte ID and the
// 36-byte outpoint (40- and 68-byte slots) cost 597. The least of a few
// fills is taken, so a collector or stream goroutine running meanwhile
// cannot fail it.
func TestAdmissionBytesPerTransaction(t *testing.T) {
	const n, bound = 4096, 300
	txs := streamTxs(t, n)
	var before, after runtime.MemStats
	least := ^uint64(0)
	for round := 0; round < 5; round++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		p := mempool.New()
		for _, tx := range txs {
			if err := p.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		runtime.KeepAlive(p)
	}
	if per := least / n; per > bound {
		t.Fatalf("admitting %d transactions into a fresh pool allocates %d bytes each, want <= %d", n, per, bound)
	} else {
		t.Logf("%d bytes per admitted transaction", per)
	}
}

// BenchmarkAddDuplicate is the cost of the delivery a flooding mesh makes
// most: a transaction the pool already holds.
func BenchmarkAddDuplicate(b *testing.B) {
	txs := streamTxs(b, 1024)
	p := mempool.New()
	for _, tx := range txs {
		if err := p.Add(tx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if err := p.Add(txs[i%len(txs)]); err != mempool.ErrDuplicate {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkAddAdmit is the cost of a first delivery: admission into an
// unbounded pool, emptied whenever the prepared transactions run out.
// Emptying confirms them, so empty generations follow until their tombstones
// expire and the same transactions are admissible again. It counts b.N, not
// b.Loop: Go 1.24.0's b.Loop measures time from the last StartTimer, so with
// the timer stopped every 4 096 admissions it never reaches the bench time.
func BenchmarkAddAdmit(b *testing.B) {
	txs := streamTxs(b, 4096)
	p := mempool.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i, n := 0, 0; n < b.N; n++ {
		if i == len(txs) {
			b.StopTimer()
			p.RemoveConfirmed(txs)
			for p.Known(txs[0].ID()) {
				p.RemoveConfirmed(nil)
			}
			i = 0
			b.StartTimer()
		}
		if err := p.Add(txs[i]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkMempoolChurn measures the fee-indexed bounded mempool under
// sustained churn: admissions into a full pool (evicting by fee rate) with
// periodic block-sized confirmations, the live blaster's hot path.
func BenchmarkMempoolChurn(b *testing.B) {
	s, err := load.NewStream(load.StreamConfig{Seed: 2, Lanes: 64, MaxTxs: int64(b.N) + 4096})
	if err != nil {
		b.Fatal(err)
	}
	s.Bind(crypto.HashBytes([]byte("bench-funding")), 0)
	p := mempool.New()
	p.SetLimits(mempool.Limits{MaxTxs: 2048})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Tx(int64(i))
		if err := p.Add(tx); err != nil && !errors.Is(err, mempool.ErrPoolFull) {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			p.RemoveConfirmed(p.Select(1 << 20))
			s.Release(int64(i) - 2048)
		}
	}
}
