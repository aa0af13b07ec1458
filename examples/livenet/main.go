// Livenet: the same Bitcoin-NG protocol code that the simulator runs, on
// real TCP sockets. Four nodes listen on loopback ports, peer up in a ring,
// node 1 mines a real proof-of-work key block at trivial difficulty, leads,
// and streams microblocks that every node follows live.
//
//	go run ./examples/livenet
package main

import (
	"fmt"
	"log"
	"time"

	"bitcoinng/internal/core"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/p2p"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/types"
)

func main() {
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	params := types.DefaultParams()
	params.RetargetWindow = 0
	params.MicroblockInterval = 200 * time.Millisecond
	params.MinMicroblockInterval = 10 * time.Millisecond

	const n = 4
	runtimes := make([]*p2p.Runtime, n)
	nodes := make([]*core.Node, n)
	addrs := make([]string, n)

	for i := 0; i < n; i++ {
		key, err := crypto.GenerateKey(sim.NewRand(int64(i), 7))
		if err != nil {
			log.Fatal(err)
		}
		rt := p2p.New(p2p.Config{NodeID: i + 1, GenesisHash: genesis.Hash(), Seed: int64(i)})
		defer rt.Close()
		ng, err := core.New(rt, node.Config{
			Params:  params,
			Key:     key,
			Genesis: genesis,
		})
		if err != nil {
			log.Fatal(err)
		}
		rt.SetHandler(func(from int, msg node.Message) { ng.HandleMessage(from, msg) })
		addr, err := rt.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		runtimes[i], nodes[i], addrs[i] = rt, ng, addr.String()
		fmt.Printf("node %d listening on %s\n", i+1, addrs[i])
	}

	// Ring topology over real sockets.
	for i := 0; i < n; i++ {
		if err := runtimes[i].Connect(addrs[(i+1)%n]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("ring connected; node 1 mining a real proof-of-work key block...")

	// Real mining: grind nonces until the header hash meets the target.
	runtimes[0].Do(func() {
		blk := nodes[0].AssembleKeyBlock()
		var tries uint64
		for nonce := uint64(0); ; nonce++ {
			blk.Header.Nonce = nonce
			tries++
			if crypto.CheckProofOfWork(blk.Header.Hash(), blk.Header.Target) {
				break
			}
		}
		nodes[0].SubmitOwnBlock(blk)
		fmt.Printf("node 1 mined key block %s after %d hashes\n", blk.Hash().Short(), tries)
	})

	// Let the leader stream microblocks over TCP for two wall-clock seconds.
	time.Sleep(2 * time.Second) //nglint:allow walltime live TCP demo deliberately runs on the wall clock

	fmt.Println()
	for i := 0; i < n; i++ {
		rt, ng := runtimes[i], nodes[i]
		rt.Do(func() {
			tip := ng.State.Tip()
			fmt.Printf("node %d: height=%d keyheight=%d tip=%s leader=%v\n",
				i+1, tip.Height, tip.KeyHeight, tip.Hash().Short(), ng.IsLeader())
		})
	}
	fmt.Println()
	fmt.Println("all nodes converged on the leader's microblock chain over live TCP.")
}
