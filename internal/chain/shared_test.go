package chain

import (
	"slices"
	"sync"
	"testing"

	"bitcoinng/internal/blockstore"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// children lists s's children of the block hashed h.
func children(t *testing.T, s *Store, h crypto.Hash) []crypto.Hash {
	t.Helper()
	n, ok := s.Get(h)
	if !ok {
		t.Fatalf("store does not hold %s", h.Short())
	}
	var out []crypto.Hash
	for c := range s.Children(n) {
		out = append(out, c.Hash())
	}
	return out
}

// TestStoresShareOnlyHeaders: two GHOST states over one table hold the very
// same header objects, and each keeps its own view of them. They receive a
// fork at different times, in different orders, one of them a block more;
// arrival times, children, subtree weights, undo records and an invalid
// mark set in one leave the other as it was.
func TestStoresShareOnlyHeaders(t *testing.T) {
	f := newFixture(t, false)
	tab := blockstore.NewTable()
	state := func() *State {
		st, err := New(f.genesis, types.DefaultParams(), openProtocol{}, &GHOST{}, WithBlockTable(tab))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := state(), state()
	k := f.powBlock(f.genesis.Hash())
	x, y := f.powBlock(k.Hash()), f.powBlock(k.Hash())
	x1 := f.powBlock(x.Hash())
	add := func(st *State, blk types.Block, at int64) {
		if _, err := st.AddBlock(blk, at); err != nil {
			t.Fatal(err)
		}
	}
	add(a, k, 1)
	add(a, x, 2)
	add(a, y, 3)
	add(a, x1, 4)
	add(b, k, 10)
	add(b, y, 11)
	add(b, x, 12)

	for _, blk := range []types.Block{f.genesis, k, x, y} {
		na, _ := a.Store().Get(blk.Hash())
		nb, _ := b.Store().Get(blk.Hash())
		if na == nil || na != nb {
			t.Fatalf("block %s: headers %p and %p, want one shared", blk.Hash().Short(), na, nb)
		}
	}
	nk, _ := a.Store().Get(k.Hash())
	nx, _ := a.Store().Get(x.Hash())
	nx1, _ := a.Store().Get(x1.Hash())
	if _, ok := b.Store().Get(x1.Hash()); ok {
		t.Fatal("b holds a block only a received")
	}
	if ga, gb := a.Store().ReceivedAt(nx), b.Store().ReceivedAt(nx); ga != 2 || gb != 12 {
		t.Errorf("arrival of x: a %d, b %d; want 2 and 12", ga, gb)
	}
	if got, want := children(t, a.Store(), k.Hash()), []crypto.Hash{x.Hash(), y.Hash()}; !slices.Equal(got, want) {
		t.Errorf("a's children of k in the wrong order")
	}
	if got, want := children(t, b.Store(), k.Hash()), []crypto.Hash{y.Hash(), x.Hash()}; !slices.Equal(got, want) {
		t.Errorf("b's children of k in the wrong order")
	}
	if got := children(t, b.Store(), x.Hash()); len(got) != 0 {
		t.Errorf("b's x has %d children, want none (x1 is a's alone)", len(got))
	}
	w := crypto.WorkForTarget(crypto.EasiestTarget)
	if got, want := a.Store().SubtreeWeight(nk), w.Add(w).Add(w).Add(w); got != want {
		t.Errorf("a's subtree weight at k is not four blocks' work")
	}
	if got, want := b.Store().SubtreeWeight(nk), w.Add(w).Add(w); got != want {
		t.Errorf("b's subtree weight at k is not three blocks' work")
	}
	// GHOST in a descends into x's heavier subtree; b sees a tie at k and
	// takes y, received first there.
	if a.Tip() != nx1 || b.Tip().Hash() != y.Hash() {
		t.Fatalf("tips %s and %s, want x1 and y", a.Tip().Hash().Short(), b.Tip().Hash().Short())
	}
	ua, ub := a.Store().view(nk).undo, b.Store().view(nk).undo
	if ua == nil || ub == nil || ua == ub {
		t.Errorf("k's undo records: a %p, b %p; want two of their own", ua, ub)
	}

	a.markInvalid(nx)
	if !a.Store().invalid.Has(nx.ord) || !a.Store().invalid.Has(nx1.ord) {
		t.Fatal("a did not mark x's subtree invalid")
	}
	if b.Store().invalid.Has(nx.ord) {
		t.Fatal("marking x invalid in a marked it in b")
	}
	if best := a.bestValidTip(); best.Hash() != y.Hash() {
		t.Errorf("a's best valid tip %s, want y", best.Hash().Short())
	}
	if best := b.choice.Best(b.Store(), b.Tip(), nx); best.Hash() != y.Hash() {
		t.Errorf("b's fork choice moved to %s after a's mark", best.Hash().Short())
	}
	if got := b.Store().ReceivedAt(nx); got != 12 {
		t.Errorf("b's arrival of x changed to %d", got)
	}
}

// TestStoresInternHeadersConcurrently: four goroutines, as the shards of a
// parallel run, insert one forked chain into four stores over one table at
// once, siblings in opposite orders, and then read every body while one
// store's eviction has sent them to an archive. Every store ends up with the
// same header objects, linked to their shared parents with the right
// heights and weights, and with its own arrival times and children order.
// make race-faults runs it under -race.
func TestStoresInternHeadersConcurrently(t *testing.T) {
	f := newFixture(t, false)
	const levels, stores = 64, 4
	var main, side []types.Block
	prev := f.genesis.Hash()
	for i := 0; i < levels; i++ {
		m, s := f.powBlock(prev), f.powBlock(prev)
		main, side = append(main, m), append(side, s)
		prev = m.Hash()
	}
	tab := blockstore.NewTable()
	ss := make([]*Store, stores)
	var wg sync.WaitGroup
	for g := range ss {
		ss[g] = NewStore(f.genesis, tab)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range main {
				first, second := main[i], side[i]
				if g%2 == 1 {
					first, second = second, first
				}
				ss[g].Insert(first, int64(g*1000+2*i))
				ss[g].Insert(second, int64(g*1000+2*i+1))
			}
		}()
	}
	wg.Wait()

	archive := blockstore.NewMem(tab)
	for i := range main {
		for _, blk := range []types.Block{main[i], side[i]} {
			if err := archive.Append(blk, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	ss[0].AttachBodySource(archive)
	tip, _ := ss[0].Get(main[levels-1].Hash())
	if got := ss[0].EvictBodies(tip, 1); got != 2*(levels-1) {
		t.Fatalf("evicted %d bodies, want %d", got, 2*(levels-1))
	}
	for g := range ss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, blk := range append(slices.Clone(main), side...) {
				n, _ := ss[g].Get(blk.Hash())
				if n.Block().Hash() != blk.Hash() {
					t.Errorf("store %d: block %s reloaded as another", g, blk.Hash().Short())
				}
			}
		}()
	}
	wg.Wait()

	w := crypto.WorkForTarget(crypto.EasiestTarget)
	for i := range main {
		for j, blk := range []types.Block{main[i], side[i]} {
			n, _ := ss[0].Get(blk.Hash())
			if n.Height != uint64(i+1) || n.KeyHeight != uint64(i+1) || n.Parent.Hash() != blk.PrevHash() {
				t.Fatalf("block %s: height %d, key height %d, wrong parent", blk.Hash().Short(), n.Height, n.KeyHeight)
			}
			if want := n.Parent.Weight.Add(w); n.Weight != want {
				t.Fatalf("block %s: weight is not its parent's plus one block's work", blk.Hash().Short())
			}
			for g, s := range ss {
				m, ok := s.Get(blk.Hash())
				if !ok || m != n {
					t.Fatalf("store %d holds another header for %s", g, blk.Hash().Short())
				}
				pos := j
				if g%2 == 1 {
					pos = 1 - j
				}
				if got, want := s.ReceivedAt(m), int64(g*1000+2*i+pos); got != want {
					t.Errorf("store %d: arrival of %s is %d, want %d", g, blk.Hash().Short(), got, want)
				}
			}
		}
		for g, s := range ss {
			want := []crypto.Hash{main[i].Hash(), side[i].Hash()}
			if g%2 == 1 {
				want[0], want[1] = want[1], want[0]
			}
			parent := f.genesis.Hash()
			if i > 0 {
				parent = main[i-1].Hash()
			}
			if got := children(t, s, parent); !slices.Equal(got, want) {
				t.Errorf("store %d: children at level %d in another order", g, i)
			}
		}
	}
}
