package chain

import (
	"encoding/binary"
	"slices"
	"testing"

	"bitcoinng/internal/blockstore"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// These tests pin the block table a simulated fleet shares (one per fleet,
// blockstore.Table): it names blocks and nothing else, so what one store
// holds stays invisible to another, probes never add names, and nothing a
// store computes depends on the order in which ordinals were handed out.

// tieTree builds a tree of PoW blocks made for full ties: eight siblings on
// genesis and one child on each, so the eight leaves share weight and height
// and, delivered at one instant, arrival time. Parents come first.
func tieTree(f *fixture) []types.Block {
	var blocks []types.Block
	for i := 0; i < 8; i++ {
		b1 := f.powBlock(f.genesis.Hash())
		blocks = append(blocks, b1, f.powBlock(b1.Hash()))
	}
	return blocks
}

// TestStoreIndependentOfOrdinalOrder builds two states over two tables that
// named the same tie-heavy tree in opposite orders, so every walk over
// ordinals visits the blocks in opposite orders: the folds over the slot
// slice (bestValidTip's selection, EvictBodies' count) and Len must come
// out the same. Under a parallel run ordinals follow shard scheduling, and
// this is what keeps it out of every result.
func TestStoreIndependentOfOrdinalOrder(t *testing.T) {
	f := newFixture(t, false)
	blocks := tieTree(f)
	hashes := []crypto.Hash{f.genesis.Hash()}
	for _, b := range blocks {
		hashes = append(hashes, b.Hash())
	}
	type outcome struct {
		best    crypto.Hash
		len     int
		evicted int
	}
	run := func(order []crypto.Hash) outcome {
		tab := blockstore.NewTable()
		for _, h := range order {
			tab.Intern(h)
		}
		st, err := New(f.genesis, types.DefaultParams(), openProtocol{}, &HeaviestChain{}, WithBlockTable(tab))
		if err != nil {
			t.Fatal(err)
		}
		bodies := blockstore.NewMem(tab)
		st.Store().AttachBodySource(bodies)
		for _, b := range blocks {
			if _, err := st.AddBlock(b, 5e9); err != nil {
				t.Fatal(err)
			}
			if err := bodies.Append(b, 5e9); err != nil {
				t.Fatal(err)
			}
		}
		return outcome{st.bestValidTip().Hash(), st.Store().Len(), st.Store().EvictBodies(st.Tip(), 1)}
	}
	forward := run(hashes)
	reversed := slices.Clone(hashes)
	slices.Reverse(reversed)
	backward := run(reversed)
	if forward != backward {
		t.Fatalf("ordinal order leaked: forward (best %s, len %d, %d evicted), backward (best %s, len %d, %d evicted)",
			forward.best.Short(), forward.len, forward.evicted, backward.best.Short(), backward.len, backward.evicted)
	}
	// The fold's answer is the total order's minimum, the leaf with the
	// smallest hash; a first-tie-wins fold would give each order its own.
	want := blocks[1].Hash()
	for i := 3; i < len(blocks); i += 2 {
		if h := blocks[i].Hash(); string(h[:]) < string(want[:]) {
			want = h
		}
	}
	if forward.best != want || forward.len != len(blocks)+1 || forward.evicted != 8 {
		t.Fatalf("got best %s, len %d, %d evicted; want best %s, len %d, 8 evicted",
			forward.best.Short(), forward.len, forward.evicted, want.Short(), len(blocks)+1)
	}
}

// TestUnknownLookupsDoNotGrowTable: lookups of hashes nobody inserted —
// what an inv flood costs a node — through the store, the state and the
// chain index leave the shared table as it was, so they cannot grow fleet
// state.
func TestUnknownLookupsDoNotGrowTable(t *testing.T) {
	f := newFixture(t, false)
	tab := blockstore.NewTable()
	st, err := New(f.genesis, types.DefaultParams(), openProtocol{}, &HeaviestChain{}, WithBlockTable(tab))
	if err != nil {
		t.Fatal(err)
	}
	index := blockstore.NewMem(tab)
	b1 := f.powBlock(f.genesis.Hash())
	if _, err := st.AddBlock(b1, 1); err != nil {
		t.Fatal(err)
	}
	if err := index.Append(b1, 1); err != nil {
		t.Fatal(err)
	}
	before := tab.Len()
	var seed [8]byte
	for i := uint64(0); i < 10000; i++ {
		binary.LittleEndian.PutUint64(seed[:], i)
		h := crypto.HashBytes(seed[:])
		if _, ok := st.Store().Get(h); ok || st.HasBlock(h) || index.Contains(h) {
			t.Fatalf("unknown hash %d found", i)
		}
	}
	if tab.Len() != before {
		t.Fatalf("table grew from %d to %d names on lookups alone", before, tab.Len())
	}
}

// TestLookupsDoNotAllocate pins Store.Get and State.HasBlock at zero
// allocations on a hit, on a miss for a block another store holds, and on a
// miss for a hash nobody named.
func TestLookupsDoNotAllocate(t *testing.T) {
	f := newFixture(t, false)
	tab := blockstore.NewTable()
	st, err := New(f.genesis, types.DefaultParams(), openProtocol{}, &HeaviestChain{}, WithBlockTable(tab))
	if err != nil {
		t.Fatal(err)
	}
	b1 := f.powBlock(f.genesis.Hash())
	if _, err := st.AddBlock(b1, 1); err != nil {
		t.Fatal(err)
	}
	elsewhere := f.powBlock(f.genesis.Hash())
	NewStore(f.genesis, tab).Insert(elsewhere, 1)
	for _, tc := range []struct {
		name string
		h    crypto.Hash
		want bool
	}{
		{"hit", b1.Hash(), true},
		{"miss, named elsewhere", elsewhere.Hash(), false},
		{"miss, unknown", crypto.HashBytes([]byte("nowhere")), false},
	} {
		if a := testing.AllocsPerRun(100, func() {
			if _, ok := st.Store().Get(tc.h); ok != tc.want || st.HasBlock(tc.h) != tc.want {
				t.Fatalf("%s: found = %v", tc.name, !tc.want)
			}
		}); a != 0 {
			t.Errorf("%s: Get+HasBlock allocate %v times, want 0", tc.name, a)
		}
	}
}

// TestSecondStoreInsertAllocatesOnlyItsNode: once one store of a fleet has
// inserted a chain, and so named its blocks, another store inserting the
// same chain allocates per block exactly two objects, both its own: the
// Node, and the one-entry children slice of its parent (each block of a
// chain is its parent's first child). Naming costs nothing, because the
// table holds the names already, and the slot slice grew once, to the
// table's length, on the store's first insert (the key block, outside the
// count). A per-store map would grow on top.
func TestSecondStoreInsertAllocatesOnlyItsNode(t *testing.T) {
	f := newFixture(t, false)
	leader := f.key
	tab := blockstore.NewTable()
	first, second := NewStore(f.genesis, tab), NewStore(f.genesis, tab)
	const n = 512
	blocks := []types.Block{f.keyBlock(f.genesis.Hash(), leader)}
	for len(blocks) < n {
		blocks = append(blocks, f.microBlock(blocks[len(blocks)-1].Hash(), leader))
	}
	for _, b := range blocks {
		first.Insert(b, 1)
	}
	second.Insert(blocks[0], 1) // also allocates the key block's weight
	got := mallocsOf(func() {
		for _, b := range blocks[1:] {
			second.Insert(b, 1)
		}
	})
	if want := uint64(2 * (n - 1)); got != want {
		t.Fatalf("inserting %d named microblocks allocated %d objects, want %d", n-1, got, want)
	}
}
