package chain

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// TestArrivalOrderIndependence: whatever the delivery order, the node ends
// with the same block tree and a tip of maximal weight (first-seen
// tie-breaking legitimately picks different equal-weight tips for different
// orders, so the invariant is on weight, not identity). Orphan stashing must
// make out-of-order delivery converge.
func TestArrivalOrderIndependence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		key, err := crypto.GenerateKey(rng)
		if err != nil {
			return false
		}
		genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
		params := types.DefaultParams()
		params.RandomTieBreak = false

		// Build a random tree of 12 blocks over genesis with branch factor
		// biased toward chains; heights differ so weights break ties.
		blocks := make([]*types.PowBlock, 0, 12)
		parents := []crypto.Hash{genesis.Hash()}
		var height uint64
		for i := 0; i < 12; i++ {
			height++
			prev := parents[rng.Intn(len(parents))]
			txs := []*types.Transaction{{
				Kind:    types.TxCoinbase,
				Outputs: []types.TxOutput{{Value: 1, To: key.Public().Addr()}},
				Height:  height,
			}}
			b := &types.PowBlock{
				Header: types.PowHeader{
					Prev:       prev,
					MerkleRoot: crypto.MerkleRoot(types.TxIDs(txs)),
					TimeNanos:  int64(height),
					Target:     crypto.EasiestTarget,
				},
				Txs:          txs,
				SimulatedPoW: true,
			}
			blocks = append(blocks, b)
			parents = append(parents, b.Hash())
		}

		build := func(order []int) *State {
			st, err := New(genesis, params, permissive{}, &HeaviestChain{})
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range order {
				// AddBlock may stash orphans and cascade later.
				st.AddBlock(blocks[idx], int64(idx))
			}
			return st
		}

		inOrder := make([]int, len(blocks))
		for i := range inOrder {
			inOrder[i] = i
		}
		shuffled := make([]int, len(blocks))
		copy(shuffled, inOrder)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})

		a := build(inOrder)
		b := build(shuffled)
		// Identical trees: every block present in both.
		if a.Store().Len() != len(blocks)+1 || b.Store().Len() != len(blocks)+1 {
			t.Logf("seed %d: tree sizes %d/%d, want %d", seed, a.Store().Len(), b.Store().Len(), len(blocks)+1)
			return false
		}
		// Both tips carry the maximal weight present in the tree.
		maxWeight := a.Store().Genesis().Weight
		for _, blk := range blocks {
			if n, ok := a.Store().Get(blk.Hash()); ok && n.Weight.Cmp(maxWeight) > 0 {
				maxWeight = n.Weight
			}
		}
		if a.Tip().Weight.Cmp(maxWeight) != 0 || b.Tip().Weight.Cmp(maxWeight) != 0 {
			t.Logf("seed %d: tip weights %v/%v, want %v", seed, a.Tip().Weight, b.Tip().Weight, maxWeight)
			return false
		}
		// UTXO state sizes agree for equal tips (cross-check reorg
		// bookkeeping when the orders happen to pick the same tip).
		if a.Tip().Hash() == b.Tip().Hash() && a.UTXO().Len() != b.UTXO().Len() {
			t.Logf("seed %d: same tip, different UTXO sizes", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// permissive accepts all well-formed blocks; used by property tests where
// economics are irrelevant. (chain_test.go's openProtocol validates
// microblock epochs; this one is for PoW-only trees with orphan delivery,
// where parent context may not exist yet at CheckBlock time.)
type permissive struct{}

func (permissive) RulesID() string { return "test/permissive" }

func (permissive) CheckBlock(st *State, parent *Node, b types.Block, now int64) error {
	return nil
}

func (permissive) ConnectCheck(st *State, n *Node, fees []types.Amount) error { return nil }

func (permissive) PoisonTargets(st *State, parent *Node, b types.Block) (map[crypto.Hash]crypto.Hash, error) {
	return nil, nil
}

// TestWeightMonotoneAlongChain checks that cumulative weight and heights
// never decrease from parent to child, for a randomly grown tree including
// microblocks.
func TestWeightMonotoneAlongChain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	key, _ := crypto.GenerateKey(rng)
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	st, err := New(genesis, types.DefaultParams(), permissive{}, &HeaviestChain{})
	if err != nil {
		t.Fatal(err)
	}

	parents := []*Node{st.Store().Genesis()}
	var height uint64
	for i := 0; i < 60; i++ {
		height++
		parent := parents[rng.Intn(len(parents))]
		var blk types.Block
		if rng.Intn(3) == 0 && parent.KeyAncestor.Block().Kind() == types.KindKey {
			mb := &types.MicroBlock{
				Header: types.MicroBlockHeader{
					Prev:      parent.Hash(),
					TxRoot:    crypto.MerkleRoot(nil),
					TimeNanos: int64(height) * 1e9,
				},
			}
			mb.Header.Sign(key)
			blk = mb
		} else {
			txs := []*types.Transaction{{
				Kind:    types.TxCoinbase,
				Outputs: []types.TxOutput{{Value: 1, To: key.Public().Addr()}},
				Height:  height,
			}}
			kb := &types.KeyBlock{
				Header: types.KeyBlockHeader{
					PowHeader: types.PowHeader{
						Prev:       parent.Hash(),
						MerkleRoot: crypto.MerkleRoot(types.TxIDs(txs)),
						TimeNanos:  int64(height) * 1e9,
						Target:     crypto.EasiestTarget,
					},
					LeaderKey: key.Public(),
				},
				Txs:          txs,
				SimulatedPoW: true,
			}
			blk = kb
		}
		res, err := st.AddBlock(blk, int64(height))
		if err != nil {
			t.Fatal(err)
		}
		if res.Node != nil {
			parents = append(parents, res.Node)
		}
	}

	// Invariants over the whole tree.
	for _, n := range parents[1:] {
		p := n.Parent
		if n.Height != p.Height+1 {
			t.Fatalf("height not incremental at %s", n.Hash().Short())
		}
		if n.Weight.Cmp(p.Weight) < 0 {
			t.Fatalf("weight decreased at %s", n.Hash().Short())
		}
		if n.Block().Kind() == types.KindMicro {
			if n.Weight.Cmp(p.Weight) != 0 {
				t.Fatalf("microblock changed weight at %s", n.Hash().Short())
			}
			if n.KeyHeight != p.KeyHeight {
				t.Fatalf("microblock changed key height at %s", n.Hash().Short())
			}
		} else if n.KeyHeight != p.KeyHeight+1 {
			t.Fatalf("key block did not increment key height at %s", n.Hash().Short())
		}
		// Heaviest-chain stores keep no subtree weights.
		if st.Store().subtree != nil {
			t.Fatalf("untracked store allocated a subtree weight at %s", n.Hash().Short())
		}
	}
}
