package types

import (
	"math/rand"
	"sync"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/wire"
)

// randomTx draws a signed transaction of a random shape: regular or poison
// (with evidence), one to three inputs, one to three outputs, and padding from
// none to past the one-byte CompactSize.
func randomTx(t testing.TB, rng *rand.Rand, key *crypto.PrivateKey) *Transaction {
	tx := &Transaction{Kind: TxRegular, Padding: make([]byte, rng.Intn(400))}
	rng.Read(tx.Padding)
	if rng.Intn(3) == 0 {
		tx.Kind = TxPoison
		tx.Evidence = &PoisonEvidence{
			Culprit:  crypto.Hash{byte(rng.Intn(256))},
			Pruned:   MicroBlockHeader{Prev: crypto.Hash{1}, TxRoot: crypto.Hash{2}, TimeNanos: rng.Int63()},
			Conflict: crypto.Hash{3},
		}
		tx.Evidence.Pruned.Sign(key)
	}
	tx.Inputs = make([]TxInput, 1+rng.Intn(3))
	for i := range tx.Inputs {
		// Every public key is in place before the first signature, which
		// covers them all.
		tx.Inputs[i].Prev = OutPoint{TxID: crypto.Hash{byte(rng.Intn(256)), byte(i)}, Index: rng.Uint32()}
		tx.Inputs[i].PubKey = key.Public()
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		tx.Outputs = append(tx.Outputs, TxOutput{Value: Amount(rng.Int63n(1e9)), To: crypto.Address{byte(n)}})
	}
	for i := range tx.Inputs {
		tx.SignInput(i, key)
	}
	if err := tx.CheckWellFormed(); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return tx
}

// sigHashModel is the construction SigHash replaced: copy the transaction
// with every input signature zeroed and hash a fresh encoding of the copy.
func sigHashModel(t *Transaction) crypto.Hash {
	c := Transaction{
		Kind:     t.Kind,
		Inputs:   make([]TxInput, len(t.Inputs)),
		Outputs:  t.Outputs,
		Height:   t.Height,
		Evidence: t.Evidence,
		Padding:  t.Padding,
	}
	copy(c.Inputs, t.Inputs)
	for i := range c.Inputs {
		c.Inputs[i].Sig = crypto.Signature{}
	}
	return crypto.HashBytes(wire.Encode(&c))
}

// TestDigestsMatchTheEncodings: every digest computed in scratch equals the
// hash of a fresh encoding — the ID of the transaction, the sighash of the
// zero-signature copy, each header hash of the header, the microblock sighash
// of the header with its signature zeroed — and computing it leaves the object
// untouched.
func TestDigestsMatchTheEncodings(t *testing.T) {
	key := testKey(t, 30)
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 200; i++ {
		tx := randomTx(t, rng, key)
		enc := wire.Encode(tx)
		tx.Invalidate()
		if got, want := tx.ID(), crypto.HashBytes(enc); got != want {
			t.Fatalf("tx %d: ID %s, hash of the encoding %s", i, got.Short(), want.Short())
		}
		if got, want := tx.SigHash(), sigHashModel(tx); got != want {
			t.Fatalf("tx %d (%s, %d inputs, %d padding): SigHash %s, model %s",
				i, tx.Kind, len(tx.Inputs), len(tx.Padding), got.Short(), want.Short())
		}
		if string(wire.Encode(tx)) != string(enc) {
			t.Fatalf("tx %d: computing the digests changed the transaction", i)
		}

		mh := MicroBlockHeader{Prev: tx.ID(), TxRoot: crypto.Hash{byte(i)}, TimeNanos: rng.Int63()}
		mh.Sign(key)
		unsigned := mh
		unsigned.Signature = crypto.Signature{}
		if got, want := mh.SigHash(), crypto.HashBytes(wire.Encode(&unsigned)); got != want {
			t.Fatalf("micro header %d: SigHash %s, model %s", i, got.Short(), want.Short())
		}
		if !mh.VerifySignature(key.Public()) {
			t.Fatalf("micro header %d: signature does not verify", i)
		}
		ph := PowHeader{Prev: mh.Hash(), MerkleRoot: tx.ID(), TimeNanos: rng.Int63(), Target: crypto.EasiestTarget, Nonce: rng.Uint64()}
		kh := KeyBlockHeader{PowHeader: PowHeader{Prev: ph.Hash(), MerkleRoot: tx.ID(), TimeNanos: rng.Int63(), Nonce: rng.Uint64()}, LeaderKey: key.Public()}
		for name, h := range map[string]struct {
			got crypto.Hash
			enc wire.Encoder
		}{"micro": {mh.Hash(), &mh}, "pow": {ph.Hash(), &ph}, "key": {kh.Hash(), &kh}} {
			if want := crypto.HashBytes(wire.Encode(h.enc)); h.got != want {
				t.Fatalf("%s header %d: Hash %s, hash of the encoding %s", name, i, h.got.Short(), want.Short())
			}
		}
	}
}

// TestConcurrentDigestsAgree computes the same digests from several
// goroutines at once — the sharded loop and the validation pool do — so a
// scratch buffer handed to two callers shows up as a wrong digest (or, under
// -race, as a race).
func TestConcurrentDigestsAgree(t *testing.T) {
	key := testKey(t, 31)
	rng := rand.New(rand.NewSource(31))
	txs := make([]*Transaction, 64)
	ids := make([]crypto.Hash, len(txs))
	sighashes := make([]crypto.Hash, len(txs))
	for i := range txs {
		txs[i] = randomTx(t, rng, key)
		ids[i] = crypto.HashBytes(wire.Encode(txs[i]))
		sighashes[i] = sigHashModel(txs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, tx := range txs {
					if tx.SigHash() != sighashes[i] {
						t.Errorf("tx %d: concurrent SigHash differs", i)
						return
					}
					tx.cachedID.Store(nil)
					if tx.ID() != ids[i] {
						t.Errorf("tx %d: concurrent ID differs", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestDigestsDoNotAllocate pins the stage-1 hashing at zero allocations once
// the scratch pools are warm: a sighash, every header hash, the microblock
// sighash and a block's Merkle fold. An uncached ID allocates exactly once,
// for the copy its cache keeps.
func TestDigestsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("-race empties sync.Pools at random")
	}
	key := testKey(t, 32)
	rng := rand.New(rand.NewSource(32))
	txs := make([]*Transaction, 300)
	for i := range txs {
		txs[i] = randomTx(t, rng, key)
	}
	tx := txs[0]
	mb := &MicroBlock{Header: MicroBlockHeader{TimeNanos: 1}, Txs: txs}
	mb.Header.Sign(key)
	ph := PowHeader{TimeNanos: 2}
	kh := KeyBlockHeader{PowHeader: PowHeader{TimeNanos: 3}, LeaderKey: key.Public()}
	for name, fn := range map[string]func(){
		"Transaction.SigHash":      func() { tx.SigHash() },
		"PowHeader.Hash":           func() { ph.Hash() },
		"KeyBlockHeader.Hash":      func() { kh.Hash() },
		"MicroBlockHeader.Hash":    func() { mb.Header.Hash() },
		"MicroBlockHeader.SigHash": func() { mb.Header.SigHash() },
		"Merkle fold of 300 txs":   func() { TxRoot(mb.Txs) },
		"cached Transaction.ID":    func() { tx.ID() },
	} {
		if a := testing.AllocsPerRun(100, fn); a != 0 {
			t.Errorf("%s allocates %v times, want 0", name, a)
		}
	}
	if a := testing.AllocsPerRun(100, func() { tx.cachedID.Store(nil); tx.ID() }); a != 1 {
		t.Errorf("an uncached ID allocates %v times, want 1 (its cache cell)", a)
	}
}

func BenchmarkTxID(b *testing.B) {
	tx := randomTx(b, rand.New(rand.NewSource(33)), testKey(b, 33))
	b.ReportAllocs()
	b.SetBytes(int64(tx.WireSize()))
	for b.Loop() {
		tx.cachedID.Store(nil)
		tx.ID()
	}
}

func BenchmarkSigHash(b *testing.B) {
	tx := randomTx(b, rand.New(rand.NewSource(34)), testKey(b, 34))
	b.ReportAllocs()
	b.SetBytes(int64(tx.WireSize()))
	for b.Loop() {
		tx.SigHash()
	}
}
