package types

import (
	"testing"
	"testing/quick"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/wire"
)

// Decode/encode must be an identity on whatever random bytes happen to
// decode — the property that guarantees a block's hash is stable across a
// relay hop regardless of who serialized it. The counted size rides along:
// wire.Size of whatever decoded must be the length it re-encodes to.

func decodeEncodeIdentity(b []byte, d interface {
	wire.Decoder
	wire.Encoder
}) bool {
	if err := wire.Decode(b, d); err != nil {
		return true // rejection is fine; silent mutation is not
	}
	out := wire.Encode(d)
	if len(out) != len(b) || wire.Size(d) != len(out) {
		return false
	}
	for i := range out {
		if out[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPowBlockDecodeJunkProperty(t *testing.T) {
	f := func(b []byte) bool { return decodeEncodeIdentity(b, new(PowBlock)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKeyBlockDecodeJunkProperty(t *testing.T) {
	f := func(b []byte) bool { return decodeEncodeIdentity(b, new(KeyBlock)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMicroBlockDecodeJunkProperty(t *testing.T) {
	f := func(b []byte) bool { return decodeEncodeIdentity(b, new(MicroBlock)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzBlockWire is the native-fuzzer form of the identity property, across
// all three block kinds plus loose transactions from one input: whatever
// bytes decode must re-encode to the same bytes, and be counted
// (wire.Size) at that length. Backed by a committed
// corpus; `make fuzz` runs a short campaign.
//
//	go test -fuzz=FuzzBlockWire -fuzztime=30s ./internal/types
func FuzzBlockWire(f *testing.F) {
	key := testKey(f, 3)
	mb := &MicroBlock{Header: MicroBlockHeader{TimeNanos: 9}}
	mb.Header.TxRoot = crypto.MerkleRoot(TxIDs(nil))
	mb.Header.Sign(key)
	f.Add(wire.Encode(mb))
	f.Add(wire.Encode(GenesisBlock(GenesisSpec{Target: crypto.EasiestTarget})))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if !decodeEncodeIdentity(raw, new(PowBlock)) {
			t.Fatal("PowBlock decode/encode not an identity")
		}
		if !decodeEncodeIdentity(raw, new(KeyBlock)) {
			t.Fatal("KeyBlock decode/encode not an identity")
		}
		if !decodeEncodeIdentity(raw, new(MicroBlock)) {
			t.Fatal("MicroBlock decode/encode not an identity")
		}
		if !decodeEncodeIdentity(raw, new(Transaction)) {
			t.Fatal("Transaction decode/encode not an identity")
		}
	})
}

// TestTruncationAlwaysRejected: every strict prefix of a valid block's
// serialization must fail to decode — no partial parse can be mistaken for
// a shorter valid block.
func TestTruncationAlwaysRejected(t *testing.T) {
	key := testKey(t, 77)
	tx := makeSignedTx(t, key, OutPoint{Index: 5}, 10, 5)
	mb := &MicroBlock{
		Header: MicroBlockHeader{TimeNanos: 9},
		Txs:    []*Transaction{tx},
	}
	mb.Header.TxRoot = crypto.MerkleRoot(TxIDs(mb.Txs))
	mb.Header.Sign(key)
	full := wire.Encode(mb)
	for cut := 0; cut < len(full); cut++ {
		var out MicroBlock
		if err := wire.Decode(full[:cut], &out); err == nil {
			t.Fatalf("prefix of length %d decoded successfully", cut)
		}
	}
}
