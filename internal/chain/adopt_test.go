package chain

import (
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
	"bitcoinng/internal/validate"
	"bitcoinng/internal/wire"
)

// These tests pin stage-1 adoption from the outside: what a state does with a
// freshly decoded copy of a block — the object an index replay or a sync hands
// it — depending on what its connect cache holds. Each fails if vouching is
// widened: by a counter that moves when it must not, or by a forged block
// that gets in.

// coldCopy returns a freshly decoded copy of b: no memo on the block, none on
// its transactions.
func coldCopy(t *testing.T, b types.Block) types.Block {
	t.Helper()
	out, err := types.DecodeBlockMsg(types.BlockMsgType(b), wire.Encode(b))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// txCount sums the transactions of the blocks.
func txCount(blocks []types.Block) (n uint64) {
	for _, b := range blocks {
		n += uint64(len(b.Transactions()))
	}
	return n
}

// replay feeds cold copies of the fleet chain's first n blocks to a new state
// on cache, every block required to enter the tree.
func (c *fleetChain) replay(t *testing.T, cache *validate.Cache, n int) *State {
	t.Helper()
	st := c.state(t, utxo.New(), cache)
	for i, b := range c.blocks[:n] {
		if _, err := st.AddBlock(coldCopy(t, b), b.Time()); err != nil {
			t.Fatalf("replaying block %d: %v", i, err)
		}
	}
	return st
}

// forgedCopy is a cold copy of microblock i with one input signature bit
// flipped: the connected block's header, and hash, over other bytes.
func (c *fleetChain) forgedCopy(t *testing.T, i, tx int) *types.MicroBlock {
	t.Helper()
	forged := coldCopy(t, c.blocks[i]).(*types.MicroBlock)
	forged.Txs[tx].Inputs[0].Sig[0] ^= 0x40
	forged.Txs[tx].Invalidate() // what decoding the tampered bytes leaves
	if forged.Hash() != c.blocks[i].Hash() {
		t.Fatal("the forgery should keep the connected block's hash")
	}
	return forged
}

// connected builds the chain and a cache that has seen all of it connect.
func connected(t *testing.T) (*fleetChain, *validate.Cache, *State) {
	t.Helper()
	c := buildFleetChain(t)
	cache := validate.NewCache(0)
	st := c.state(t, utxo.New(), cache)
	for i := range c.blocks {
		if i == c.prune-1 {
			// The microblock the second key block prunes: still connected
			// (and vouched for) by everyone who saw it first.
			c.deliver(t, st, i)
			continue
		}
		if _, err := st.AddBlock(c.blocks[i], c.blocks[i].Time()); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	return c, cache, st
}

// TestReplayAdoptsWhatTheCacheConnected is soundness test (a): a second life
// over the same cache replays decoded copies and every transaction of every
// block is vouched for, none verified — while the logical counters read
// exactly what a replay of warm objects reads: one hit per connect, no probe
// in sight.
func TestReplayAdoptsWhatTheCacheConnected(t *testing.T) {
	c, cache, first := connected(t)
	before := cache.Stats()
	if before.Vouched != 0 {
		t.Fatalf("the first life vouched for %d transactions of blocks nobody had connected", before.Vouched)
	}
	second := c.replay(t, cache, len(c.blocks))
	after := cache.Stats()
	if got, want := after.Vouched-before.Vouched, txCount(c.blocks); got != want {
		t.Fatalf("vouched %d transactions, want all %d", got, want)
	}
	if second.Tip().Hash() != first.Tip().Hash() {
		t.Fatal("the replayed state stands on another tip")
	}
	sameLedger(t, "replayed ledger", contentsOf(second.UTXO()), contentsOf(first.UTXO()))

	// The same replay with the first life's own (warm) objects: the logical
	// counters must not tell the two apart, and nothing is vouched.
	warm := c.state(t, utxo.New(), cache)
	for i, b := range c.blocks {
		if _, err := warm.AddBlock(b, b.Time()); err != nil {
			t.Fatalf("warm block %d: %v", i, err)
		}
	}
	final := cache.Stats()
	if final.Vouched != after.Vouched {
		t.Fatalf("warm objects were probed: vouched %d more", final.Vouched-after.Vouched)
	}
	if after.Hits-before.Hits != final.Hits-after.Hits || after.Misses != before.Misses || final.Misses != before.Misses || final.Entries != before.Entries {
		t.Fatalf("adoption moved the logical counters: cold replay %+v -> %+v, warm replay -> %+v", before, after, final)
	}
}

// TestForgedCopyIsNotVouched is soundness test (b): the header of a connected
// microblock over transactions one signature byte off. The hash — all the
// cache key sees — is the connected block's, but the fold no longer reaches
// the header's root, so nothing is adopted and full verification rejects it.
func TestForgedCopyIsNotVouched(t *testing.T) {
	c, cache, _ := connected(t)
	const target = 3 // the 24-spend microblock
	st := c.replay(t, cache, target)
	forged := c.forgedCopy(t, target, 5)
	before := cache.Stats()
	res, err := st.AddBlock(forged, forged.Time())
	if err == nil || res.Status != StatusInvalid {
		t.Fatalf("forged copy: status %v, err %v", res.Status, err)
	}
	if after := cache.Stats(); after != before {
		t.Fatalf("rejecting the forgery moved the cache: %+v -> %+v", before, after)
	}
	if forged.Txs[5].CheckWellFormed() == nil {
		t.Fatal("the forged transaction ended up signature-checked")
	}
	// The honest copy still goes through, vouched.
	if _, err := st.AddBlock(coldCopy(t, c.blocks[target]), c.blocks[target].Time()); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Vouched - before.Vouched; got != uint64(len(forged.Txs)) {
		t.Fatalf("honest copy: vouched %d, want %d", got, len(forged.Txs))
	}
}

// TestNoEntryBeforeCheckBlock is soundness test (c): the epoch's own leader
// signs a microblock whose root is consistent with a transaction carrying a
// bad input signature. Every other block of the chain is vouched for; this
// one has nothing to be vouched by — and must never get it: a cache entry is
// stored by the connect stage, which a block reaches only through CheckBlock.
func TestNoEntryBeforeCheckBlock(t *testing.T) {
	c, cache, first := connected(t)
	bad := c.fix.spend(types.OutPoint{TxID: c.genesis.Txs[0].ID(), Index: c.funded}, 400, crypto.Address{0xBA})
	bad.Inputs[0].Sig[7] ^= 1
	bad.Invalidate()
	tip := c.blocks[len(c.blocks)-1]
	forged := c.fix.microBlock(tip.Hash(), c.leader, bad) // root and leader signature both hold
	key := validate.Key{Block: forged.Hash(), Parent: tip.Hash(), Rules: first.fp}

	entries := cache.Stats().Entries
	deliver := func(st *State, b types.Block, who string) {
		t.Helper()
		res, err := st.AddBlock(b, b.Time())
		if err == nil || res.Status != StatusInvalid {
			t.Fatalf("%s: status %v, err %v", who, res.Status, err)
		}
		if cache.Vouches(key) || cache.Stats().Entries != entries {
			t.Fatalf("%s: the rejected block left a cache entry behind", who)
		}
	}
	deliver(first, forged, "first life")
	second := c.replay(t, cache, len(c.blocks))
	vouched := cache.Stats().Vouched
	deliver(second, coldCopy(t, forged), "second life, cold copy")
	deliver(second, coldCopy(t, forged), "second life, again")
	if cache.Stats().Vouched != vouched {
		t.Fatal("the forged block's transactions were vouched for")
	}
	if second.Tip().Hash() != tip.Hash() {
		t.Fatal("the replayed state left its tip")
	}
}

// TestNothingElseVouches is soundness test (d): a negative entry, an entry
// under another rules fingerprint, and a state without a cache each leave a
// cold block to full verification — the counter does not move, honest blocks
// are accepted, a forged one is rejected.
func TestNothingElseVouches(t *testing.T) {
	c, cache, first := connected(t)
	tip := c.blocks[len(c.blocks)-1]

	// A well-formed microblock that fails at connect (it spends an output
	// the chain already spent): a negative entry under its own key.
	spent := c.fix.spend(types.OutPoint{TxID: c.genesis.Txs[0].ID(), Index: 0}, 400, crypto.Address{0xDD})
	doomed := c.fix.microBlock(tip.Hash(), c.leader, spent)
	if _, err := first.AddBlock(doomed, doomed.Time()); err == nil {
		t.Fatal("double spend connected")
	}
	key := validate.Key{Block: doomed.Hash(), Parent: tip.Hash(), Rules: first.fp}
	if _, held := cache.Lookup(key); !held || cache.Vouches(key) {
		t.Fatalf("negative entry: held %v, vouches %v", held, cache.Vouches(key))
	}
	second := c.replay(t, cache, len(c.blocks))
	vouched := cache.Stats().Vouched
	if _, err := second.AddBlock(coldCopy(t, doomed), doomed.Time()); err == nil {
		t.Fatal("double spend connected on replay")
	}
	if cache.Stats().Vouched != vouched {
		t.Fatal("a negative entry vouched for a block")
	}

	// Other rules on the same cache — every entry is in another universe —
	// and no cache at all: a cold prefix goes through unvouched, and what ran
	// instead is full verification, which the forgery of test (b) fails.
	other := *c
	other.params.Subsidy++
	for name, cc := range map[string]struct {
		chain *fleetChain
		cache *validate.Cache
	}{"other rules": {&other, cache}, "no cache": {c, nil}} {
		st := cc.chain.replay(t, cc.cache, 3)
		if cc.cache != nil && st.fp == first.fp {
			t.Fatalf("%s: fingerprints should differ", name)
		}
		if cc.cache == nil && st.ConnectCacheStats() != (validate.Stats{}) {
			t.Fatalf("%s: stats %+v", name, st.ConnectCacheStats())
		}
		if cache.Stats().Vouched != vouched {
			t.Fatalf("%s: an entry vouched for a block it does not cover", name)
		}
		if _, err := st.AddBlock(c.forgedCopy(t, 3, 0), c.blocks[3].Time()); err == nil {
			t.Fatalf("%s: forged copy accepted", name)
		}
		if _, err := st.AddBlock(coldCopy(t, c.blocks[3]), c.blocks[3].Time()); err != nil || st.Tip().Hash() != c.blocks[3].Hash() {
			t.Fatalf("%s: honest copy after the forgery: %v", name, err)
		}
	}
}
