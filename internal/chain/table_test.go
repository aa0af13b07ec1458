package chain

import (
	"encoding/binary"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"bitcoinng/internal/blockstore"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
	"bitcoinng/internal/validate"
)

// These tests pin the block table a simulated fleet shares (one per fleet,
// blockstore.Table): it names blocks and keeps their headers, so what one
// store holds stays invisible to another, probes never add names, a store
// that inserts a block another named pays only for its own view of it, and
// nothing a store computes depends on the order in which ordinals were
// handed out. shared_test.go pins the views apart.

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
// inserted a chain, and so named its blocks and published their headers,
// another store inserting the same chain allocates per block only its own
// view, which holds its arrival time, its children links and its undo
// record: 40 bytes, in chunks of eight, plus the chunk directory's growth.
// Naming and the header cost nothing, because the table holds both already.
// The byte count pins the view at 40 bytes; a 48-byte view, a per-store
// header, children slice or map would grow on top.
func TestSecondStoreInsertAllocatesOnlyItsNode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a quiet Mallocs counter, as testing.AllocsPerRun arranges
	f := newFixture(t, false)
	leader := f.key
	tab := blockstore.NewTable()
	first := NewStore(f.genesis, tab)
	const n = 512
	blocks := []types.Block{f.keyBlock(f.genesis.Hash(), leader)}
	for len(blocks) < n {
		blocks = append(blocks, f.microBlock(blocks[len(blocks)-1].Hash(), leader))
	}
	for _, b := range blocks {
		first.Insert(b, 1)
	}
	second := NewStore(f.genesis, tab)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range blocks {
		second.Insert(b, 1)
	}
	runtime.ReadMemStats(&after)
	checkViewAllocs(t, "inserting", n, &before, &after)
	for _, b := range blocks {
		n1, _ := first.Get(b.Hash())
		n2, _ := second.Get(b.Hash())
		if n1 != n2 {
			t.Fatalf("block %s: the two stores hold different headers", b.Hash().Short())
		}
	}
}

// checkViewAllocs fails t unless what a store allocated while taking n
// blocks past its genesis chunk is their views and the chunk directory's
// growth: a chunk of eight 40-byte views per eight blocks, and under five directory
// pointers per chunk over its doublings.
func checkViewAllocs(t *testing.T, what string, n int, before, after *runtime.MemStats) {
	t.Helper()
	chunks := uint64(n+7) / 8
	if got, max := after.Mallocs-before.Mallocs, chunks+uint64(bits.Len64(chunks)); got > max {
		t.Errorf("%s %d known blocks allocated %d objects, want at most %d (a chunk per 8 views, directory growth)", what, n, got, max)
	}
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(n*40)+5*8*chunks; got > max {
		t.Errorf("%s %d known blocks allocated %d bytes, want at most %d (a 40-byte view each, directory growth)", what, n, got, max)
	}
}

// TestSecondStateAddBlockAllocatesOnlyItsNode pins a warm second state's
// single-block AddBlock, over a fleet's one block table and connect cache, at
// what its tree needs: the block's 40-byte view, in chunks of eight. The
// result and its lists are the state's own, reused from call to call, and
// the connect is a cache hit whose delta the ledger adopts.
func TestSecondStateAddBlockAllocatesOnlyItsNode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a quiet Mallocs counter, as testing.AllocsPerRun arranges
	f := newFixture(t, false)
	tab, cache := blockstore.NewTable(), validate.NewCache(0)
	state := func() *State {
		st, err := New(f.genesis, f.st.Params(), openProtocol{}, &HeaviestChain{},
			WithBlockTable(tab), WithConnectCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	const n = 256
	blocks := []types.Block{f.keyBlock(f.genesis.Hash(), f.key)}
	for len(blocks) < n {
		blocks = append(blocks, f.microBlock(blocks[len(blocks)-1].Hash(), f.key))
	}
	first, second := state(), state()
	for _, b := range blocks {
		if res, err := first.AddBlock(b, 1); err != nil || res.Status != StatusMainChain {
			t.Fatalf("first state: %v, %v", res.Status, err)
		}
	}
	second.AddBlock(blocks[0], 1) // warm the result's lists
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range blocks[1:] {
		second.AddBlock(b, 1)
	}
	runtime.ReadMemStats(&after)
	checkViewAllocs(t, "adding", n-1, &before, &after)
	if second.Tip().Hash() != blocks[n-1].Hash() {
		t.Errorf("second state's tip is not the last block")
	}
}
