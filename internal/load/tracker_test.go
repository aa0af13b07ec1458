package load

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// stampedBlock is an unvalidated microblock on prev carrying one stamped
// stream transaction per index (plus an unstamped one the walk must skip);
// salt keeps sibling blocks distinct.
func stampedBlock(prev crypto.Hash, salt int64, indices []int64) *types.MicroBlock {
	b := &types.MicroBlock{Header: types.MicroBlockHeader{Prev: prev, TimeNanos: salt}}
	b.Txs = append(b.Txs, &types.Transaction{Kind: types.TxRegular})
	for _, i := range indices {
		tx := &types.Transaction{Kind: types.TxRegular, Padding: make([]byte, indexStampLen)}
		stampIndex(tx, i)
		b.Txs = append(b.Txs, tx)
	}
	return b
}

// countingBodies is an archive of every block the test inserted that counts
// the bodies the tree reloads from it.
type countingBodies struct {
	blocks map[crypto.Hash]types.Block
	gets   int
}

func (c *countingBodies) Contains(h crypto.Hash) bool { _, ok := c.blocks[h]; return ok }

func (c *countingBodies) Get(h crypto.Hash) (types.Block, error) {
	c.gets++
	return c.blocks[h], nil
}

// TestTrackerMatchesFullWalk grows a random block tree — extensions of the
// current tip, forks off old blocks, switches to other branches (which
// unwind the blocks they prune from the path, sometimes onto a shorter
// chain) — and after every step compares the tracker with the oracle, a
// fresh Confirmations walk of the same tip: same count, same confirmed
// prefix, same sorted index list, same confirmation list, same recorded
// path. Between steps every body is evicted, and an Advance may reload only
// the bodies of the blocks it applies: unwinding reads none.
func TestTrackerMatchesFullWalk(t *testing.T) {
	unwound := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := chain.NewStore(types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget}), nil)
		bodies := &countingBodies{blocks: map[crypto.Hash]types.Block{}}
		store.AttachBodySource(bodies)
		nodes := []*chain.Node{store.Genesis()}
		// onBranch[n] is the set of stream indices confirmed up to n, so a
		// new block never re-confirms one on its own branch (a chain cannot).
		onBranch := map[*chain.Node][]int64{store.Genesis(): nil}
		tip := store.Genesis()
		var tr Tracker
		for step := 0; step < 300; step++ {
			parent := tip
			switch r := rng.Intn(10); {
			case r < 6: // extend the tip
			case r < 8: // fork off any earlier block and move there
				parent = nodes[rng.Intn(len(nodes))]
			default: // reorg to an existing block without adding one
				tip = nodes[rng.Intn(len(nodes))]
				parent = nil
			}
			if parent != nil {
				have := onBranch[parent]
				var add []int64
				for k := rng.Intn(6); k > 0; k-- {
					// Mostly the next unconfirmed index, sometimes a gap.
					i := int64(len(have)+len(add)) + int64(rng.Intn(3)/2*rng.Intn(5))
					if !slices.Contains(have, i) && !slices.Contains(add, i) {
						add = append(add, i)
					}
				}
				b := stampedBlock(parent.Hash(), int64(step), add)
				bodies.blocks[b.Hash()] = b
				tip = store.Insert(b, 0)
				nodes = append(nodes, tip)
				onBranch[tip] = append(slices.Clone(have), add...)
			}
			if rng.Intn(4) == 0 {
				continue // let several steps accumulate before the next Advance
			}

			applied := 0
			for n := tip; n != nil && !(n.Height < uint64(len(tr.path)) && tr.path[n.Height] == n); n = n.Parent {
				applied++
			}
			unwound += len(tr.path) + applied - int(tip.Height) - 1
			bodies.gets = 0
			tr.Advance(tip)
			if bodies.gets > applied {
				t.Fatalf("seed %d step %d: Advance applied %d blocks and reloaded %d bodies", seed, step, applied, bodies.gets)
			}
			want := Confirmations(tip)
			if got := tr.Confirmations(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Confirmations() = %v, the full walk gives %v", seed, step, got, want)
			}
			if got := tr.Count(); got != int64(len(want)) {
				t.Fatalf("seed %d step %d: Count = %d, full walk confirms %d", seed, step, got, len(want))
			}
			var prefix int64
			for _, c := range want {
				if c.Index != prefix {
					break
				}
				prefix++
			}
			if got := tr.Prefix(); got != prefix {
				t.Fatalf("seed %d step %d: Prefix = %d, full walk's is %d", seed, step, got, prefix)
			}
			var got []int64
			for w, word := range tr.confirmed {
				for b := 0; b < 64; b++ {
					if word&(1<<b) != 0 {
						got = append(got, int64(w*64+b))
					}
				}
			}
			for i, c := range want {
				if i >= len(got) || got[i] != c.Index {
					t.Fatalf("seed %d step %d: confirmed set %v differs from the walk's at position %d (%d)", seed, step, got, i, c.Index)
				}
			}
			if len(tr.path) != int(tip.Height)+1 {
				t.Fatalf("seed %d step %d: path holds %d blocks for a tip at height %d", seed, step, len(tr.path), tip.Height)
			}
			for n := tip; n != nil; n = n.Parent {
				if tr.path[n.Height] != n {
					t.Fatalf("seed %d step %d: path[%d] is not the main-chain block", seed, step, n.Height)
				}
			}
			store.EvictBodies(slices.MaxFunc(nodes, func(a, b *chain.Node) int { return cmp.Compare(a.Height, b.Height) }), 0)
		}
	}
	if unwound == 0 {
		t.Fatal("no Advance unwound a block; the reorg steps exercised nothing")
	}
}

// residentChain inserts a chain of blocks on genesis, each carrying perBlock
// consecutive stream indices, and returns its nodes from genesis up; every
// body stays resident.
func residentChain(blocks, perBlock int) []*chain.Node {
	store := chain.NewStore(types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget}), nil)
	nodes := []*chain.Node{store.Genesis()}
	indices := make([]int64, perBlock)
	for h := range blocks {
		for i := range indices {
			indices[i] = int64(h*perBlock + i)
		}
		nodes = append(nodes, store.Insert(stampedBlock(nodes[h].Hash(), int64(h), indices), 0))
	}
	return nodes
}

// TestTrackerAdvanceAllocatesOnlyGrowth pins what advancing over resident
// blocks costs: a tracker following a chain block by block allocates only
// the geometric growth of its path, its runs and its bitset, nothing per
// block or per transaction, and once grown, a reorg away from and back to
// the tip allocates nothing.
func TestTrackerAdvanceAllocatesOnlyGrowth(t *testing.T) {
	const blocks, perBlock = 256, 16
	nodes := residentChain(blocks, perBlock)
	follow := func() {
		var tr Tracker
		for _, n := range nodes {
			tr.Advance(n)
		}
		if tr.Count() != blocks*perBlock {
			t.Fatalf("tracker confirms %d, want %d", tr.Count(), blocks*perBlock)
		}
	}
	// path, ends and runs double at most bits.Len(blocks)+1 times each, the
	// bitset bits.Len(words)+1 times, and the scratch list once.
	limit := float64(3*(bits.Len(blocks)+1) + bits.Len(blocks*perBlock/64) + 2)
	if allocs := testing.AllocsPerRun(10, follow); allocs > limit {
		t.Fatalf("following %d blocks of %d transactions allocated %v times, want at most %v (growth only)",
			blocks, perBlock, allocs, limit)
	}
	var tr Tracker
	tr.Advance(nodes[blocks])
	reorg := func() {
		tr.Advance(nodes[blocks/2])
		tr.Advance(nodes[blocks])
	}
	if allocs := testing.AllocsPerRun(10, reorg); allocs != 0 {
		t.Fatalf("unwinding and re-advancing %d resident blocks allocated %v times, want 0", blocks/2, allocs)
	}
}

func BenchmarkTrackerAdvance(b *testing.B) {
	const blocks, perBlock = 64, 64
	nodes := residentChain(blocks, perBlock)
	var tr Tracker
	b.ReportAllocs()
	for b.Loop() {
		tr.Advance(nodes[0])
		tr.Advance(nodes[blocks])
	}
}
