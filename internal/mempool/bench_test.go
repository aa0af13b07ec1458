package mempool_test

import (
	"errors"
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
func BenchmarkAddAdmit(b *testing.B) {
	txs := streamTxs(b, 4096)
	p := mempool.New()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if i == len(txs) {
			b.StopTimer()
			p.RemoveConfirmed(txs)
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
