package utxo

import (
	"encoding/binary"
	"testing"

	"bitcoinng/internal/types"
)

// benchBlocks funds a set with `funded` outputs and returns a generator of
// blocks of txsPerBlock two-in-two-out transactions, each spending the oldest
// unspent outputs, so the ledger keeps its size however long a benchmark
// runs. Signatures are left out (the ledger never reads them) and IDs and
// input addresses are computed up front, so a benchmark times ledger work
// alone.
func benchBlocks(b *testing.B, s *Set, funded, txsPerBlock int) func() []*types.Transaction {
	b.Helper()
	key := testKey(b, 41)
	addr := key.Public().Addr()
	outs := make([]types.TxOutput, funded)
	for i := range outs {
		outs[i] = types.TxOutput{Value: 1000, To: addr}
	}
	cb := &types.Transaction{Kind: types.TxCoinbase, Outputs: outs}
	if _, _, err := s.ApplyBlock([]*types.Transaction{cb}, ctxAt(0)); err != nil {
		b.Fatal(err)
	}
	unspent := make([]types.OutPoint, funded)
	for i := range unspent {
		unspent[i] = types.OutPoint{TxID: cb.ID(), Index: uint32(i)}
	}
	serial := uint64(0)
	return func() []*types.Transaction {
		txs := make([]*types.Transaction, txsPerBlock)
		for i := range txs {
			serial++
			tx := &types.Transaction{
				Kind:    types.TxRegular,
				Inputs:  []types.TxInput{{Prev: unspent[0], PubKey: key.Public()}, {Prev: unspent[1], PubKey: key.Public()}},
				Outputs: []types.TxOutput{{Value: 1000, To: addr}, {Value: 1000, To: addr}},
				Padding: binary.LittleEndian.AppendUint64(nil, serial),
			}
			tx.InputAddr(0)
			unspent = append(unspent[2:], types.OutPoint{TxID: tx.ID(), Index: 0}, types.OutPoint{TxID: tx.ID(), Index: 1})
			txs[i] = tx
		}
		return txs
	}
}

// BenchmarkRedoFleet is the scale1000 shape: one block's delta, computed
// once, crossed by a thousand sets standing on the same tip. One op is the
// whole fleet's redo; the undo that rewinds it is untimed.
func BenchmarkRedoFleet(b *testing.B) {
	leader := New()
	next := benchBlocks(b, leader, 2048, 40)
	below := leader.Clone() // keeps the pre-state alive for the rewinds
	d, _, err := leader.ApplyBlock(next(), ctxAt(1))
	if err != nil {
		b.Fatal(err)
	}
	fleet := make([]*Set, 1000)
	for i := range fleet {
		fleet[i] = below.Clone()
	}
	b.ReportAllocs()
	b.ResetTimer()
	// b.N, not b.Loop: Loop ends on the time since the last StartTimer,
	// which an untimed rewind inside the loop keeps short of -benchtime.
	for range b.N {
		for _, s := range fleet {
			s.RedoBlock(d, BlockRef{})
		}
		b.StopTimer()
		for _, s := range fleet {
			s.UndoBlock(d, BlockRef{})
		}
		b.StartTimer()
	}
	if fleet[0].Version() != below.Version() {
		b.Fatal("fleet did not rewind to the shared pre-state")
	}
}

// BenchmarkApplyPrivate is the livesync3 shape: one set that shares with
// nobody applies a chain of 75-transaction blocks, each once, and keeps
// every undo log. One op is one block.
func BenchmarkApplyPrivate(b *testing.B) {
	s := New()
	next := benchBlocks(b, s, 8192, 75)
	var undo []*Delta
	height := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N { // b.N, not b.Loop: see BenchmarkRedoFleet
		b.StopTimer()
		txs := next()
		height++
		b.StartTimer()
		d, _, err := s.ApplyBlock(txs, ctxAt(height))
		if err != nil {
			b.Fatal(err)
		}
		undo = append(undo, d)
	}
}
