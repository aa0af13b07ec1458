package core

import (
	"testing"
	"time"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/types"
)

// TestCensoringLeaderInfluenceEnds reproduces §5.2 "Censorship Resistance":
// a malicious leader publishes empty microblocks — a DoS on the ledger — but
// its influence ends when the next honest leader's key block arrives, after
// which the backlog serializes.
func TestCensoringLeaderInfluenceEnds(t *testing.T) {
	params := ngParams()
	loop := sim.NewLoop(0)
	network := simnet.New(loop, simnet.DefaultConfig(4, 31))

	nodes := make([]*Node, 4)
	keys := makeKeys(t, 4, 31)
	genesis, fundedKey, fundedOuts := fundedGenesis(t, 31, 20)
	for i := range nodes {
		env := simnet.NewNodeEnv(loop, network, i, 31)
		n, err := New(env, node.Config{
			Params:             params,
			Key:                keys[i],
			Genesis:            genesis,
			SimulatedMining:    true,
			CensorTransactions: i == 0, // node 0 censors
		})
		if err != nil {
			t.Fatal(err)
		}
		env.Deliver(n.HandleMessage)
		nodes[i] = n
	}
	// Same pending transactions everywhere.
	for _, op := range fundedOuts {
		tx := &types.Transaction{
			Kind:    types.TxRegular,
			Inputs:  []types.TxInput{{Prev: op}},
			Outputs: []types.TxOutput{{Value: 9_000, To: keys[1].Public().Addr()}},
		}
		tx.SignInput(0, fundedKey)
		for _, n := range nodes {
			if err := n.Pool.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The censor leads first: microblocks flow but stay empty.
	nodes[0].MineKeyBlock()
	loop.RunFor(30 * time.Second)
	confirmed := func(n *Node) int {
		count := 0
		for _, c := range n.State.MainChain() {
			for _, tx := range c.Block().Transactions() {
				if tx.Kind == types.TxRegular {
					count++
				}
			}
		}
		return count
	}
	if nodes[1].State.Height() < 3 {
		t.Fatalf("censoring leader stopped producing microblocks entirely (height %d)",
			nodes[1].State.Height())
	}
	if got := confirmed(nodes[1]); got != 0 {
		t.Fatalf("censor leaked %d transactions", got)
	}

	// An honest node takes over: the backlog serializes immediately.
	nodes[1].MineKeyBlock()
	loop.RunFor(30 * time.Second)
	if got := confirmed(nodes[1]); got != 20 {
		t.Errorf("confirmed %d transactions after honest takeover, want 20", got)
	}
}

func makeKeys(t *testing.T, n int, seed int64) []*crypto.PrivateKey {
	t.Helper()
	keys := make([]*crypto.PrivateKey, n)
	for i := range keys {
		k, err := crypto.GenerateKey(sim.NewRand(seed, uint64(500+i)))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	return keys
}

func fundedGenesis(t *testing.T, seed int64, outputs int) (*types.PowBlock, *crypto.PrivateKey, []types.OutPoint) {
	t.Helper()
	key, err := crypto.GenerateKey(sim.NewRand(seed, 999))
	if err != nil {
		t.Fatal(err)
	}
	payouts := make([]types.TxOutput, outputs)
	for i := range payouts {
		payouts[i] = types.TxOutput{Value: 10_000, To: key.Public().Addr()}
	}
	genesis := types.GenesisBlock(types.GenesisSpec{
		Target:  crypto.EasiestTarget,
		Payouts: payouts,
	})
	ops := make([]types.OutPoint, outputs)
	cbID := genesis.Txs[0].ID()
	for i := range ops {
		ops[i] = types.OutPoint{TxID: cbID, Index: uint32(i)}
	}
	return genesis, key, ops
}
