package types

import (
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/wire"
)

// sizeFixtures builds one of every wire.Encoder this package defines: a
// padded regular transaction, a poison transaction carrying evidence, the
// three headers and the three block kinds.
func sizeFixtures(t testing.TB) map[string]wire.Encoder {
	key := testKey(t, 21)
	regular := makeSignedTx(t, key, OutPoint{Index: 3}, 10, 5)
	regular.Padding = make([]byte, 300) // past the 1-byte CompactSize
	regular.Invalidate()

	pruned := MicroBlockHeader{Prev: crypto.Hash{1}, TxRoot: crypto.Hash{2}, TimeNanos: 5}
	pruned.Sign(key)
	poison := &Transaction{
		Kind:     TxPoison,
		Outputs:  []TxOutput{{Value: 1, To: crypto.Address{2}}},
		Evidence: &PoisonEvidence{Culprit: crypto.Hash{3}, Pruned: pruned, Conflict: crypto.Hash{4}},
		Padding:  []byte{1, 2, 3},
	}

	coinbase := makeCoinbase(key.Public().Addr(), 50, 1)
	pow := &PowBlock{
		Header:       PowHeader{MerkleRoot: crypto.Hash{5}, TimeNanos: 7, Target: crypto.EasiestTarget},
		Txs:          []*Transaction{coinbase, regular},
		SimulatedPoW: true,
	}
	kb := &KeyBlock{
		Header: KeyBlockHeader{PowHeader: PowHeader{Prev: crypto.Hash{6}, Target: crypto.EasiestTarget}, LeaderKey: key.Public()},
		Txs:    []*Transaction{coinbase, poison},
	}
	mb := &MicroBlock{Header: pruned, Txs: []*Transaction{regular, poison, regular}}
	return map[string]wire.Encoder{
		"regular tx":       regular,
		"poison tx":        poison,
		"pow header":       &pow.Header,
		"key header":       &kb.Header,
		"micro header":     &mb.Header,
		"pow block":        pow,
		"key block":        kb,
		"micro block":      mb,
		"empty microblock": &MicroBlock{},
	}
}

// TestSizeEqualsEncodedLength: for every encoder here the counted size is
// the encoded length, Encode's result carries no slack, and the memoized
// WireSize agrees.
func TestSizeEqualsEncodedLength(t *testing.T) {
	for name, e := range sizeFixtures(t) {
		b := wire.Encode(e)
		if got := wire.Size(e); got != len(b) {
			t.Errorf("%s: wire.Size = %d, encoded length %d", name, got, len(b))
		}
		if cap(b) != len(b) {
			t.Errorf("%s: Encode returned cap %d for %d bytes", name, cap(b), len(b))
		}
		if s, ok := e.(interface{ WireSize() int }); ok && s.WireSize() != len(b) {
			t.Errorf("%s: WireSize = %d, encoded length %d", name, s.WireSize(), len(b))
		}
	}
}

// TestColdWireSizeDoesNotAllocate pins sizes being counted rather than
// encoded: a first (un-memoized) WireSize allocates nothing.
func TestColdWireSizeDoesNotAllocate(t *testing.T) {
	fx := sizeFixtures(t)
	tx := fx["regular tx"].(*Transaction)
	mb := fx["micro block"].(*MicroBlock)
	var blk Block = mb
	if a := testing.AllocsPerRun(100, func() {
		tx.cachedSize.Store(0)
		tx.WireSize()
	}); a != 0 {
		t.Errorf("cold Transaction.WireSize allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		mb.cachedSize.Store(0)
		blk.WireSize()
	}); a != 0 {
		t.Errorf("cold MicroBlock.WireSize allocates %v times, want 0", a)
	}
}

// benchBlock is a microblock of n padded ~476-byte transactions, the
// blast16 shape, each signed over its padding.
func benchBlock(b *testing.B, n int) *MicroBlock {
	key := testKey(b, 22)
	txs := make([]*Transaction, n)
	for i := range txs {
		txs[i] = makeSignedTx(b, key, OutPoint{Index: uint32(i)}, 10, 5)
		txs[i].Padding = make([]byte, 260)
		txs[i].SignInput(0, key)
	}
	return &MicroBlock{Txs: txs}
}

func BenchmarkBlockSize(b *testing.B) {
	mb := benchBlock(b, 80)
	b.ReportAllocs()
	for b.Loop() {
		mb.cachedSize.Store(0)
		mb.WireSize()
	}
}

func BenchmarkBlockEncode(b *testing.B) {
	mb := benchBlock(b, 80)
	b.ReportAllocs()
	b.SetBytes(int64(mb.WireSize()))
	for b.Loop() {
		wire.Encode(mb)
	}
}
