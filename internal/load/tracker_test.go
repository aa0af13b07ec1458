package load

import (
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

// TestTrackerMatchesFullWalk grows a random block tree — extensions of the
// current tip, forks off old blocks, switches to other branches (which
// unwind the blocks they prune from the path, sometimes onto a shorter
// chain) — and after every step compares the tracker with the oracle, a
// fresh Confirmations walk of the same tip: same count, same confirmed
// prefix, same sorted index list, same recorded path.
func TestTrackerMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := chain.NewStore(types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget}), nil)
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
				tip = store.Insert(stampedBlock(parent.Hash(), int64(step), add), 0)
				nodes = append(nodes, tip)
				onBranch[tip] = append(slices.Clone(have), add...)
			}
			if rng.Intn(4) == 0 {
				continue // let several steps accumulate before the next Advance
			}

			tr.Advance(tip)
			want := Confirmations(tip)
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
		}
	}
}
