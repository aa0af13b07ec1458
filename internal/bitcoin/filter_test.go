package bitcoin

import (
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// TestSpendFilterReusesScratch pins block assembly's filter: it keeps what a
// block could connect (chained spends included, an in-block double spend
// dropped), and from its second call on it allocates nothing — its maps are
// the node's, cleared between calls, and the result reuses the candidates'
// array.
func TestSpendFilterReusesScratch(t *testing.T) {
	c := newCluster(t, 2, 11, testParams())
	c.preload(t, 32, 0)
	n := c.nodes[0]
	pooled := n.Pool.Select(1 << 20)
	if len(pooled) != 32 {
		t.Fatalf("selected %d of 32 preloaded", len(pooled))
	}
	// The preloaded outputs pay throwaway addresses, so swap the first
	// preloaded transaction for one paying keys[0] (same input and fee) and
	// chain a child on it (9 000 -> 8 500). A rival of the second spends the
	// same genesis output.
	pooled[0] = &types.Transaction{
		Kind:    types.TxRegular,
		Inputs:  pooled[0].Inputs,
		Outputs: []types.TxOutput{{Value: 9_000, To: c.keys[0].Public().Addr()}},
	}
	pooled[0].SignInput(0, c.keys[0])
	child := &types.Transaction{
		Kind:    types.TxRegular,
		Inputs:  []types.TxInput{{Prev: types.OutPoint{TxID: pooled[0].ID()}}},
		Outputs: []types.TxOutput{{Value: 8_500}},
	}
	child.SignInput(0, c.keys[0])
	rival := &types.Transaction{
		Kind:    types.TxRegular,
		Inputs:  pooled[1].Inputs,
		Outputs: []types.TxOutput{{Value: 1, To: crypto.Address{1}}},
	}
	rival.SignInput(0, c.keys[0])
	candidates := append(append([]*types.Transaction{}, pooled...), child, rival)

	var f SpendFilter
	scratch := make([]*types.Transaction, len(candidates))
	var got []*types.Transaction
	var fees types.Amount
	assemble := func() {
		copy(scratch, candidates)
		got, fees = f.Filter(n.State, scratch, 1)
	}
	assemble()
	if len(got) != 33 || got[32] != child {
		t.Fatalf("kept %d of %d candidates, want the 32 preloaded and the child", len(got), len(candidates))
	}
	if want := types.Amount(32*1000 + 500); fees != want {
		t.Fatalf("fees %d, want %d", fees, want)
	}
	if allocs := testing.AllocsPerRun(100, assemble); allocs != 0 {
		t.Fatalf("a repeat assembly allocates %v times in the filter, want 0", allocs)
	}
}
