package types

import (
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/wire"
)

func makeCoinbase(to crypto.Address, value Amount, height uint64) *Transaction {
	return &Transaction{
		Kind:    TxCoinbase,
		Outputs: []TxOutput{{Value: value, To: to}},
		Height:  height,
	}
}

func makePowBlock(t *testing.T, prev crypto.Hash, height uint64) *PowBlock {
	t.Helper()
	txs := []*Transaction{makeCoinbase(crypto.Address{1}, 50, height)}
	return &PowBlock{
		Header: PowHeader{
			Prev:       prev,
			MerkleRoot: crypto.MerkleRoot(TxIDs(txs)),
			TimeNanos:  int64(height) * 1e9,
			Target:     crypto.EasiestTarget,
		},
		Txs:          txs,
		SimulatedPoW: true,
	}
}

func TestPowBlockRoundTrip(t *testing.T) {
	b := makePowBlock(t, crypto.HashBytes([]byte("prev")), 1)
	var out PowBlock
	if err := wire.Decode(wire.Encode(b), &out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.Hash() != b.Hash() {
		t.Error("round trip changed hash")
	}
	if err := out.CheckWellFormed(); err != nil {
		t.Errorf("decoded block invalid: %v", err)
	}
	if out.WireSize() != b.WireSize() {
		t.Error("round trip changed wire size")
	}
}

func TestPowBlockValidation(t *testing.T) {
	b := makePowBlock(t, crypto.ZeroHash, 1)
	if err := b.CheckWellFormed(); err != nil {
		t.Fatalf("valid block rejected: %v", err)
	}

	// Wrong merkle root.
	bad := makePowBlock(t, crypto.ZeroHash, 1)
	bad.Header.MerkleRoot = crypto.Hash{1}
	if err := bad.CheckWellFormed(); err == nil {
		t.Error("bad merkle root accepted")
	}

	// Missing coinbase.
	bad = makePowBlock(t, crypto.ZeroHash, 1)
	bad.Txs = nil
	if err := bad.CheckWellFormed(); err == nil {
		t.Error("empty tx set accepted")
	}

	// Second coinbase.
	bad = makePowBlock(t, crypto.ZeroHash, 1)
	bad.Txs = append(bad.Txs, makeCoinbase(crypto.Address{2}, 50, 1))
	bad.Header.MerkleRoot = crypto.MerkleRoot(TxIDs(bad.Txs))
	if err := bad.CheckWellFormed(); err == nil {
		t.Error("duplicate coinbase accepted")
	}

	// Live block must satisfy proof of work: an impossible target fails.
	bad = makePowBlock(t, crypto.ZeroHash, 1)
	bad.SimulatedPoW = false
	bad.Header.Target = crypto.CompactTarget(0x01000001) // near-zero target
	if err := bad.CheckWellFormed(); err == nil {
		t.Error("live block without PoW accepted")
	}
}

func TestKeyBlockRoundTripAndLeaderKey(t *testing.T) {
	leader := testKey(t, 11)
	txs := []*Transaction{makeCoinbase(leader.Public().Addr(), 50, 2)}
	kb := &KeyBlock{
		Header: KeyBlockHeader{
			Prev:       crypto.HashBytes([]byte("tip")),
			MerkleRoot: crypto.MerkleRoot(TxIDs(txs)),
			TimeNanos:  7e9,
			Target:     crypto.EasiestTarget,
			LeaderKey:  leader.Public(),
		},
		Txs:          txs,
		SimulatedPoW: true,
	}
	if err := kb.CheckWellFormed(); err != nil {
		t.Fatalf("valid key block rejected: %v", err)
	}
	var out KeyBlock
	if err := wire.Decode(wire.Encode(kb), &out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.Hash() != kb.Hash() {
		t.Error("round trip changed hash")
	}
	if out.Header.LeaderKey != leader.Public() {
		t.Error("leader key lost in round trip")
	}
	if out.Kind() != KindKey {
		t.Errorf("Kind = %v", out.Kind())
	}
	if out.Work().Sign() <= 0 {
		t.Error("key block carries no work")
	}
}

func TestMicroBlockSignatureAndWeight(t *testing.T) {
	leader := testKey(t, 12)
	attacker := testKey(t, 13)
	tx := makeSignedTx(t, leader, OutPoint{Index: 9}, 5, 5)
	mb := &MicroBlock{
		Header: MicroBlockHeader{
			Prev:      crypto.HashBytes([]byte("keyblock")),
			TxRoot:    crypto.MerkleRoot(TxIDs([]*Transaction{tx})),
			TimeNanos: 8e9,
		},
		Txs: []*Transaction{tx},
	}
	mb.Header.Sign(leader)

	if err := mb.CheckWellFormed(leader.Public()); err != nil {
		t.Fatalf("valid microblock rejected: %v", err)
	}
	// Wrong leader key must fail: only the epoch leader may extend (§4.2).
	if err := mb.CheckWellFormed(attacker.Public()); err == nil {
		t.Error("microblock accepted under wrong leader key")
	}
	// Microblocks carry zero weight (§4.2).
	if mb.Work().Sign() != 0 {
		t.Error("microblock carries weight")
	}
	// A coinbase inside a microblock is invalid.
	bad := &MicroBlock{
		Header: MicroBlockHeader{Prev: mb.Header.Prev},
		Txs:    []*Transaction{makeCoinbase(crypto.Address{3}, 50, 1)},
	}
	bad.Header.TxRoot = crypto.MerkleRoot(TxIDs(bad.Txs))
	bad.Header.Sign(leader)
	if err := bad.CheckWellFormed(leader.Public()); err == nil {
		t.Error("microblock with coinbase accepted")
	}
}

func TestMicroBlockRoundTrip(t *testing.T) {
	leader := testKey(t, 14)
	mb := &MicroBlock{
		Header: MicroBlockHeader{
			Prev:      crypto.HashBytes([]byte("k")),
			TimeNanos: 1e9,
		},
	}
	mb.Header.TxRoot = crypto.MerkleRoot(nil)
	mb.Header.Sign(leader)
	var out MicroBlock
	if err := wire.Decode(wire.Encode(mb), &out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.Hash() != mb.Hash() {
		t.Error("round trip changed hash")
	}
	if !out.Header.VerifySignature(leader.Public()) {
		t.Error("signature lost in round trip")
	}
}

func TestMicroBlockHashCommitsToSignature(t *testing.T) {
	leaderA := testKey(t, 15)
	leaderB := testKey(t, 16)
	hdr := MicroBlockHeader{Prev: crypto.Hash{1}, TimeNanos: 5}
	a := hdr
	a.Sign(leaderA)
	b := hdr
	b.Sign(leaderB)
	if a.Hash() == b.Hash() {
		t.Error("different signatures produced the same microblock hash")
	}
	if a.SigHash() != b.SigHash() {
		t.Error("SigHash must not depend on the signature")
	}
}

func TestDecodeBlockMsg(t *testing.T) {
	pb := makePowBlock(t, crypto.ZeroHash, 1)
	payload := wire.Encode(pb)

	got, err := DecodeBlockMsg(wire.MsgBlock, payload)
	if err != nil {
		t.Fatalf("DecodeBlockMsg: %v", err)
	}
	if got.Hash() != pb.Hash() {
		t.Error("decoded block hash mismatch")
	}
	if _, err := DecodeBlockMsg(wire.MsgPing, payload); err == nil {
		t.Error("non-block message type accepted")
	}
	if _, err := DecodeBlockMsg(wire.MsgMicroBlock, payload); err == nil {
		t.Error("pow payload decoded as microblock")
	}
	if BlockMsgType(pb) != wire.MsgBlock {
		t.Error("BlockMsgType(pow) wrong")
	}
}

func TestGenesisDeterminism(t *testing.T) {
	spec := GenesisSpec{
		TimeNanos: 42,
		Target:    crypto.EasiestTarget,
		Payouts:   []TxOutput{{Value: 1000, To: crypto.Address{7}}},
	}
	a := GenesisBlock(spec)
	b := GenesisBlock(spec)
	if a.Hash() != b.Hash() {
		t.Error("same spec produced different genesis blocks")
	}
	if err := a.CheckWellFormed(); err != nil {
		t.Errorf("genesis invalid: %v", err)
	}
	if !a.PrevHash().IsZero() {
		t.Error("genesis has a predecessor")
	}
	// Different payouts, different genesis.
	spec.Payouts[0].Value = 2000
	if GenesisBlock(spec).Hash() == a.Hash() {
		t.Error("different spec produced the same genesis")
	}
	// Empty payouts still yields a valid block.
	empty := GenesisBlock(GenesisSpec{Target: crypto.EasiestTarget})
	if err := empty.CheckWellFormed(); err != nil {
		t.Errorf("empty genesis invalid: %v", err)
	}
}

func TestSplitFeeConserved(t *testing.T) {
	p := DefaultParams()
	for _, fee := range []Amount{0, 1, 2, 3, 99, 100, 12345, -5} {
		leader, next := p.SplitFee(fee)
		if fee <= 0 {
			if leader != 0 || next != 0 {
				t.Errorf("SplitFee(%d) = %d,%d", fee, leader, next)
			}
			continue
		}
		if leader+next != fee {
			t.Errorf("SplitFee(%d): %d+%d != %d", fee, leader, next, fee)
		}
		if leader < 0 || next < 0 {
			t.Errorf("SplitFee(%d) negative share", fee)
		}
	}
	// 40% of 100 is exactly 40.
	leader, next := p.SplitFee(100)
	if leader != 40 || next != 60 {
		t.Errorf("SplitFee(100) = %d,%d, want 40,60", leader, next)
	}
}

// adoptFixture is a signed microblock of n spends plus a helper that decodes
// a fresh (cold) copy of it, optionally after tampering with the encoding.
func adoptFixture(t *testing.T, n int) (*MicroBlock, *crypto.PrivateKey) {
	t.Helper()
	leader := testKey(t, 31)
	txs := make([]*Transaction, n)
	for i := range txs {
		txs[i] = makeSignedTx(t, leader, OutPoint{Index: uint32(i)}, 5, 5)
	}
	mb := &MicroBlock{
		Header: MicroBlockHeader{Prev: crypto.Hash{7}, TxRoot: crypto.MerkleRoot(TxIDs(txs)), TimeNanos: 9e9},
		Txs:    txs,
	}
	mb.Header.Sign(leader)
	return mb, leader
}

func decodedCopy(t *testing.T, b Block) Block {
	t.Helper()
	out, err := DecodeBlockMsg(BlockMsgType(b), wire.Encode(b))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAdoptSignaturesNeedsTheCommittedBytes pins what adoption rests on: a
// decoded copy whose transactions fold to the header's root takes every
// signature verdict without verifying and still passes the full check; one
// flipped signature byte changes a transaction ID, the fold no longer matches,
// and nothing at all is adopted — the forged object is rejected by real
// verification. Adoption is offered to cold objects only, once.
func TestAdoptSignaturesNeedsTheCommittedBytes(t *testing.T) {
	mb, leader := adoptFixture(t, 5)

	good := decodedCopy(t, mb).(*MicroBlock)
	if !Stage1Cold(good) {
		t.Fatal("a freshly decoded block is not cold")
	}
	if n, ok := AdoptSignatures(good); !ok || n != len(mb.Txs) {
		t.Fatalf("matching copy: adopted %d, ok %v; want %d", n, ok, len(mb.Txs))
	}
	for i, tx := range good.Txs {
		if !tx.sigOK.Load() {
			t.Fatalf("tx %d not marked signature-checked", i)
		}
	}
	if Stage1Cold(good) {
		t.Fatal("an adopted block is still cold: it would be probed and folded again")
	}
	if err := good.CheckWellFormed(leader.Public()); err != nil {
		t.Fatalf("adopted copy rejected: %v", err)
	}
	// Adoption covers transaction signatures only: the leader signature is
	// still checked, under whatever key the caller resolves.
	other := decodedCopy(t, mb).(*MicroBlock)
	AdoptSignatures(other)
	if err := other.CheckWellFormed(testKey(t, 32).Public()); err != ErrBadSignature {
		t.Fatalf("adopted copy under a foreign leader key: %v, want %v", err, ErrBadSignature)
	}

	forged := decodedCopy(t, mb).(*MicroBlock)
	forged.Txs[3].Inputs[0].Sig[10] ^= 1
	forged.Txs[3].Invalidate() // what decoding the tampered bytes would leave
	if n, ok := AdoptSignatures(forged); ok || n != 0 {
		t.Fatalf("forged copy: adopted %d, ok %v", n, ok)
	}
	for i, tx := range forged.Txs {
		if tx.sigOK.Load() {
			t.Fatalf("forged copy: tx %d marked signature-checked", i)
		}
	}
	if !Stage1Cold(forged) {
		t.Fatal("a refused adoption left a memo behind")
	}
	if err := forged.CheckWellFormed(leader.Public()); err == nil {
		t.Fatal("forged copy accepted")
	}
	if forged.Txs[3].CheckWellFormed() == nil {
		t.Fatal("forged transaction passes its own check")
	}

	// Warm objects are never offered: the verdict is already on them.
	if mb.CheckWellFormed(leader.Public()) != nil || Stage1Cold(mb) {
		t.Fatal("a judged block still reads cold")
	}
}

// TestAdoptSignaturesPowAndKeyBlocks: the root the fold must match is the
// header's MerkleRoot for the two proof-of-work kinds, and the memoized fold
// is what their CheckWellFormed then finds.
func TestAdoptSignaturesPowAndKeyBlocks(t *testing.T) {
	key := testKey(t, 33)
	txs := []*Transaction{makeCoinbase(crypto.Address{1}, 50, 4), makeSignedTx(t, key, OutPoint{Index: 1}, 5, 5)}
	root := crypto.MerkleRoot(TxIDs(txs))
	blocks := []Block{
		&PowBlock{Header: PowHeader{MerkleRoot: root, Target: crypto.EasiestTarget}, Txs: txs, SimulatedPoW: true},
		&KeyBlock{Header: KeyBlockHeader{MerkleRoot: root, Target: crypto.EasiestTarget, LeaderKey: key.Public()}, Txs: txs, SimulatedPoW: true},
	}
	for _, b := range blocks {
		c := decodedCopy(t, b)
		if n, ok := AdoptSignatures(c); !ok || n != 2 || !c.Transactions()[1].sigOK.Load() {
			t.Fatalf("%v: adopted %d, ok %v", b.Kind(), n, ok)
		}
		bad := decodedCopy(t, b)
		bad.Transactions()[1].Outputs[0].Value++
		bad.Transactions()[1].Invalidate()
		if n, ok := AdoptSignatures(bad); ok || n != 0 || bad.Transactions()[1].sigOK.Load() {
			t.Fatalf("%v, tampered output: adopted %d, ok %v", b.Kind(), n, ok)
		}
	}
}
