// Command ngnode runs a live Bitcoin-NG node over TCP: real proof-of-work
// key-block mining at a configurable difficulty, microblock production while
// leading, and inv/getdata block relay with peers. The node is assembled
// through protocol.Build — the same path the simulator harnesses use — so
// protocol code runs unchanged between the emulator and live sockets.
//
// Start a two-node network on one machine:
//
//	ngnode -id 1 -listen 127.0.0.1:9401 -mine
//	ngnode -id 2 -listen 127.0.0.1:9402 -connect 127.0.0.1:9401 -mine
//
// Nodes must share the genesis parameters (-genesis-time) to peer.
package main

import (
	cryptorand "crypto/rand"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"bitcoinng/internal/core"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/harness"
	"bitcoinng/internal/node"
	"bitcoinng/internal/p2p"
	"bitcoinng/internal/protocol"
	"bitcoinng/internal/store"
	"bitcoinng/internal/strategy"
	"bitcoinng/internal/types"
	"bitcoinng/internal/validate"
)

func main() {
	var (
		id          = flag.Int("id", 1, "unique node id on this network")
		listen      = flag.String("listen", "127.0.0.1:9401", "listen address")
		connect     = flag.String("connect", "", "comma-separated peer addresses to dial")
		mine        = flag.Bool("mine", false, "mine key blocks (real proof of work)")
		genesisTime = flag.Int64("genesis-time", 0, "genesis timestamp (all nodes must agree)")
		micro       = flag.Duration("micro-interval", 2*time.Second, "microblock interval while leading")
		status      = flag.Duration("status", 5*time.Second, "status print interval")
		exponent    = flag.Uint("difficulty-exp", 0x20, "compact target exponent byte (lower = harder)")
		storeURL    = flag.String("store", "", "storage locator for the chain index (mem: | file:<dir>; empty: in-memory only)")
		stratName   = flag.String("strategy", "", "mining strategy ("+strings.Join(strategy.Names(), " | ")+"); empty = honest")
	)
	flag.Parse()
	log.SetPrefix(fmt.Sprintf("ngnode[%d] ", *id))
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	// Trivially easy default difficulty so laptops find blocks in seconds;
	// the target is consensus-checked, so all nodes must agree.
	target := crypto.CompactTarget(uint32(*exponent)<<24 | 0x7fffff)
	genesis := types.GenesisBlock(types.GenesisSpec{
		TimeNanos: *genesisTime,
		Target:    target,
	})

	params := types.DefaultParams()
	params.RetargetWindow = 0 // fixed difficulty for demo networks
	params.MicroblockInterval = *micro
	params.MinMicroblockInterval = 10 * time.Millisecond

	// A live node's identity key comes from OS entropy; timestamp-seeded
	// PRNG keys are guessable and collide when nodes start together.
	key, err := crypto.GenerateKey(cryptorand.Reader)
	if err != nil {
		log.Fatalf("key generation: %v", err)
	}
	strat, err := strategy.New(*stratName)
	if err != nil {
		log.Fatalf("strategy: %v", err)
	}

	rt := p2p.New(p2p.Config{NodeID: *id, GenesisHash: genesis.Hash(), Seed: int64(*id)})
	defer rt.Close()

	// The chain index comes from one locator — the same factory the simulator
	// harnesses use. The ledger is not stored: the chain state builds its own
	// in memory, and Boot re-derives it from the index.
	factory, err := store.NewFactory(*storeURL)
	if err != nil {
		log.Fatalf("store: %v", err)
	}
	defer factory.Close()

	index, err := factory.NewChainIndex("node")
	if err != nil {
		log.Fatalf("chain index: %v", err)
	}
	defer func() {
		// A failed final flush loses the tail of the archive; say so
		// instead of exiting clean.
		if err := index.Close(); err != nil {
			log.Printf("chain index close: %v", err)
		}
	}()

	// The same boot sequence the simulator harnesses restart nodes through:
	// build via protocol.Build, stored blocks replayed under
	// their recorded arrival times, and everything the chain accepts from
	// here on appended to the index (gossip and self-mined paths alike).
	client, err := harness.Boot(rt, protocol.Spec{Protocol: protocol.BitcoinNG, Config: node.Config{
		Params:  params,
		Key:     key,
		Genesis: genesis,
		// One live process usually hosts one node, but reorgs still
		// replay cached deltas instead of re-applying blocks.
		ConnectCache: validate.Shared(),
		Strategy:     strat,
	}}, index, nil)
	if err != nil {
		log.Fatalf("node: %v", err)
	}
	base := client.Base()
	rt.SetHandler(client.HandleMessage)
	log.Printf("replayed %d blocks (height %d)", index.Len(), base.State.Height())

	addr, err := rt.Listen(*listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("listening on %s, address %s, genesis %s", addr, key.Public().Addr(), genesis.Hash().Short())

	for _, peerAddr := range strings.Split(*connect, ",") {
		peerAddr = strings.TrimSpace(peerAddr)
		if peerAddr == "" {
			continue
		}
		if err := rt.Connect(peerAddr); err != nil {
			log.Printf("connect %s: %v", peerAddr, err)
		} else {
			log.Printf("connected to %s", peerAddr)
		}
	}

	stop := make(chan struct{})
	ng := client.NG()
	if *mine {
		go mineLoop(rt, base, ng, stop)
	}

	ticker := time.NewTicker(*status) //nglint:allow walltime live-node operator status display; not part of any simulation
	defer ticker.Stop()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case <-ticker.C:
			rt.Do(func() {
				tip := base.State.Tip()
				log.Printf("height=%d keyheight=%d tip=%s leader=%v peers=%d micro=%d",
					tip.Height, tip.KeyHeight, tip.Hash().Short(), ng.IsLeader(),
					len(rt.Peers()), ng.MicroblocksMined())
			})
		case <-sigs:
			close(stop)
			log.Printf("shutting down")
			return
		}
	}
}

// mineLoop grinds real proofs of work on the current tip, refreshing the
// template whenever the chain moves.
func mineLoop(rt *p2p.Runtime, base *node.Base, ng *core.Node, stop chan struct{}) {
	var tipGen atomic.Uint64 // bumped on every template refresh
	for {
		select {
		case <-stop:
			return
		default:
		}
		var blk *types.KeyBlock
		var tipHash crypto.Hash
		rt.Do(func() {
			blk = ng.AssembleKeyBlock()
			tipHash = base.State.Tip().Hash()
		})
		gen := tipGen.Add(1)
		found := false
		for nonce := uint64(0); ; nonce++ {
			select {
			case <-stop:
				return
			default:
			}
			blk.Header.Nonce = nonce
			if crypto.CheckProofOfWork(blk.Header.Hash(), blk.Header.Target) {
				found = true
				break
			}
			// Refresh the template periodically in case the tip moved.
			if nonce%50_000 == 0 && nonce > 0 {
				var cur crypto.Hash
				rt.Do(func() { cur = base.State.Tip().Hash() })
				if cur != tipHash || tipGen.Load() != gen {
					break
				}
			}
		}
		if !found {
			continue
		}
		rt.Do(func() {
			if base.State.Tip().Hash() == tipHash {
				res := base.SubmitOwnBlock(blk)
				log.Printf("mined key block %s (status %v)", blk.Hash().Short(), res.Status)
			}
		})
	}
}
