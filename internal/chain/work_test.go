package chain

import (
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// These tests pin the edges of fixed-width chain weight: a comparison that
// must read every limb, and a sum that must saturate rather than wrap. That
// a microblock's weight equals its parent's is TestWeightMonotoneAlongChain.

const allOnes = ^uint64(0)

// TestHeavierByOneAcrossLimbIsAdopted: a fork whose weight exceeds the tip's
// by one unit, where adding that unit carries through every byte of the low
// limb, takes over. The genesis target 2^64 is worth (2^64-1)(2^128+1)
// work, whose low limb is all ones; a target of 255 is worth 2^248.
func TestHeavierByOneAcrossLimbIsAdopted(t *testing.T) {
	f := newFixture(t, false)
	genesis := types.GenesisBlock(types.GenesisSpec{Target: 0x09010000})
	st, err := New(genesis, types.DefaultParams(), openProtocol{}, &HeaviestChain{})
	if err != nil {
		t.Fatal(err)
	}
	f.st = st
	withTarget := func(b *types.PowBlock, target crypto.CompactTarget) *types.PowBlock {
		b.Header.Target = target
		return b
	}
	a1 := withTarget(f.powBlock(genesis.Hash()), 0x030000ff)
	b1 := withTarget(f.powBlock(genesis.Hash()), 0x030000ff)
	b2 := f.powBlock(b1.Hash()) // the easiest target: one unit of work
	f.add(a1)
	f.add(b1)
	if st.Tip().Hash() != a1.Hash() {
		t.Fatal("an equal-weight fork displaced the first-seen tip")
	}
	if want := (crypto.Work{allOnes, 0, allOnes, 1 << 56}); st.Tip().Weight != want {
		t.Fatalf("tip weight %x, want %x", st.Tip().Weight, want)
	}
	f.add(b2)
	if st.Tip().Hash() != b2.Hash() {
		t.Fatal("a fork heavier by one unit was not adopted")
	}
	if want := (crypto.Work{0, 1, allOnes, 1 << 56}); st.Tip().Weight != want {
		t.Fatalf("tip weight %x, want %x", st.Tip().Weight, want)
	}
}

// TestZeroTargetKeyBlocksSaturate: a target of zero is worth 2^256-1, so
// the first such key block already fills the weight and the second must
// leave it there, not wrap below its one-block prefix.
func TestZeroTargetKeyBlocksSaturate(t *testing.T) {
	f := newFixture(t, false)
	k1 := f.keyBlock(f.genesis.Hash(), f.key)
	k1.Header.Target = 0
	f.add(k1)
	k2 := f.keyBlock(k1.Hash(), f.key)
	k2.Header.Target = 0
	f.add(k2)
	full := crypto.Work{allOnes, allOnes, allOnes, allOnes}
	for _, b := range []types.Block{k1, k2} {
		n, _ := f.st.Store().Get(b.Hash())
		if n.Weight != full {
			t.Fatalf("weight at key height %d is %x, want %x", n.KeyHeight, n.Weight, full)
		}
	}
	if f.st.Tip().Hash() != k2.Hash() {
		t.Fatal("the saturated descendant was not adopted")
	}
}
