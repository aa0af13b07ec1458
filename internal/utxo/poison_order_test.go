package utxo

import (
	"reflect"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// TestPoisonRevokeOrderDeterministic pins the determinism bug nglint's
// maporder analyzer found in applyPoison: revocations were appended to the
// delta while ranging over the entries map, so two applications of the same
// poison block could record differently-ordered (and thus
// differently-replaying) deltas. The delta is shared across nodes by the
// connect cache, so revocation order is consensus-adjacent state. Revocations must
// come out in ascending output-index order on every run.
func TestPoisonRevokeOrderDeterministic(t *testing.T) {
	params := types.DefaultParams()
	cheater := testKey(t, 20)
	poisoner := testKey(t, 21)

	const nOutputs = 12
	outs := make([]types.TxOutput, nOutputs)
	for i := range outs {
		outs[i] = types.TxOutput{Value: 100, To: cheater.Public().Addr()}
	}

	var first []types.OutPoint
	for trial := 0; trial < 8; trial++ {
		s := New()
		cb := &types.Transaction{Kind: types.TxCoinbase, Outputs: outs, Height: 3}
		if _, _, err := s.ApplyBlock([]*types.Transaction{cb}, BlockContext{Height: 3, Params: params}); err != nil {
			t.Fatal(err)
		}
		poison := &types.Transaction{
			Kind:     types.TxPoison,
			Outputs:  []types.TxOutput{{Value: 60, To: poisoner.Public().Addr()}}, // 5% of 1200
			Evidence: &types.PoisonEvidence{Culprit: crypto.Hash{1}},
		}
		ctx := BlockContext{
			Height:        4,
			Params:        params,
			PoisonTargets: map[crypto.Hash]crypto.Hash{poison.ID(): cb.ID()},
		}
		undo, _, err := s.ApplyBlock([]*types.Transaction{poison}, ctx)
		if err != nil {
			t.Fatalf("trial %d: poison rejected: %v", trial, err)
		}

		got := undo.revoked
		if len(got) != nOutputs {
			t.Fatalf("trial %d: %d revocations, want %d", trial, len(got), nOutputs)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Index >= got[i].Index {
				t.Fatalf("trial %d: revocations not in ascending index order at %d: %v then %v",
					trial, i, got[i-1], got[i])
			}
		}
		if trial == 0 {
			first = got
		} else if !reflect.DeepEqual(first, got) {
			t.Fatalf("trial %d: revoke order diverged from trial 0:\n%v\nvs\n%v", trial, got, first)
		}
	}
}
