package ghost

import (
	"testing"
	"time"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/types"
)

func TestGhostClusterConverges(t *testing.T) {
	loop := sim.NewLoop(0)
	network := simnet.New(loop, simnet.DefaultConfig(6, 1))
	params := types.DefaultParams()
	params.RandomTieBreak = false
	params.RetargetWindow = 0

	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	var nodes []*Node
	for i := 0; i < 6; i++ {
		key, err := crypto.GenerateKey(sim.NewRand(1, uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		env := simnet.NewNodeEnv(loop, network, i, 1)
		n, err := New(env, node.Config{
			Params:          params,
			Key:             key,
			Genesis:         genesis,
			SimulatedMining: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		env.Deliver(n.HandleMessage)
		nodes = append(nodes, n)
	}

	// Create competing forks, then let one side accumulate subtree weight.
	nodes[0].MineBlock()
	nodes[1].MineBlock() // same height: fork
	loop.RunFor(30 * time.Second)
	for round := 0; round < 4; round++ {
		nodes[round%6].MineBlock()
		loop.RunFor(30 * time.Second)
	}

	tip := nodes[0].State.Tip().Hash()
	for i, n := range nodes {
		if n.State.Tip().Hash() != tip {
			t.Errorf("node %d tip differs under GHOST", i)
		}
	}
	if h := nodes[0].State.Height(); h < 4 {
		t.Errorf("height %d too small", h)
	}
}
