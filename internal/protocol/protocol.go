// Package protocol is the consensus-client registry: every way of running a
// node — interactive clusters (the root package), measured experiments
// (internal/experiment), and live binaries (cmd/ngnode) — assembles its
// clients through one Build call, so a new protocol variant (an attack
// client, a parameter fork) plugs into every harness by registering a
// constructor, without touching any of them.
//
// A protocol implementation satisfies Client: the universal surface the
// harnesses drive. Everything beyond it — leadership, equivocation, live
// key-block assembly — is an optional capability discovered by interface
// assertion, so protocols expose exactly what they implement and harness
// features degrade gracefully on clients that lack them.
package protocol

import (
	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/strategy"
	"bitcoinng/internal/types"
	"bitcoinng/internal/validate"
)

// Protocol names a registered consensus client implementation.
type Protocol string

// The built-in protocols, registered at package init.
const (
	// Bitcoin is the baseline Nakamoto blockchain (§3 of the paper).
	Bitcoin Protocol = "bitcoin"
	// BitcoinNG is the paper's contribution (§4): key blocks elect
	// leaders, microblocks serialize transactions.
	BitcoinNG Protocol = "bitcoin-ng"
	// GHOST is the heaviest-subtree baseline discussed in §9.
	GHOST Protocol = "ghost"
)

// Spec carries everything a client constructor needs. One Spec vocabulary
// serves every registered protocol; constructors ignore fields that do not
// apply to them.
type Spec struct {
	// Protocol selects the registered constructor.
	Protocol Protocol
	// Params are the consensus parameters under test.
	Params types.Params
	// Key signs the node's blocks (microblocks while leading, under NG)
	// and receives its rewards.
	Key *crypto.PrivateKey
	// Genesis is the shared genesis block.
	Genesis *types.PowBlock
	// Recorder receives metric events; nil discards them.
	Recorder node.Recorder
	// SimulatedMining marks blocks as scheduler-generated and accepts such
	// blocks from peers; live nodes leave it false and grind real nonces.
	SimulatedMining bool
	// CensorTransactions makes an NG node publish empty microblocks while
	// leading (§5.2 "Censorship Resistance"); other protocols ignore it.
	CensorTransactions bool
	// ConnectCache shares memoized connect-stage verdicts (UTXO deltas,
	// fees) between every node whose validation rules fingerprint matches
	// — the harnesses pass validate.Shared() so the 2nd..Nth node
	// connecting a block replays the first node's work. nil validates
	// everything locally.
	ConnectCache *validate.Cache
	// Strategy is the node's mining strategy (internal/strategy): which
	// block its key blocks extend, publish-vs-withhold decisions, and the
	// coinbase fee split. nil runs honest. Strategies bend production
	// choices only — validation of received blocks is unaffected, so the
	// connect cache stays shareable across strategies. Protocols without
	// strategic freedom ignore it.
	Strategy strategy.Strategy
	// UTXO, when set, is the node's ledger storage backend (internal/store
	// builds them from a locator); it must be empty or freshly Reset, since
	// the chain applies genesis into it. nil keeps the in-memory set.
	UTXO chain.UTXOStore
}

// Client is a running consensus protocol node: the surface every harness
// (cluster, experiment runner, live binary) drives, regardless of protocol.
type Client interface {
	// Base returns the protocol-independent node core (chain state,
	// mempool, gossip, metrics wiring).
	Base() *node.Base
	// HandleMessage is the node's network entry point.
	HandleMessage(from int, msg node.Message)
	// MineBlock forces one proof-of-work block find now — a key block
	// under Bitcoin-NG, a regular block otherwise — and returns it. It is
	// the simulated miner's onFind callback.
	MineBlock() types.Block
}

// Optional capabilities, discovered via interface assertion on a Client.
// Bitcoin-NG implements all of them; a custom protocol implements whichever
// subset it supports and the harnesses adapt.
type (
	// Leader is implemented by protocols with a notion of a current
	// leader (Bitcoin-NG: the miner of the latest key block).
	Leader interface {
		IsLeader() bool
	}

	// MicroblockProducer reports microblock production counts.
	MicroblockProducer interface {
		MicroblocksMined() uint64
	}

	// FraudWitness reports how many leader equivocations the node has
	// witnessed and holds poison evidence for (§4.5).
	FraudWitness interface {
		FraudsDetected() int
	}

	// Equivocator is implemented by clients that can act as a malicious
	// leader: sign two conflicting microblocks on the current tip for the
	// caller to deliver to disjoint parts of the network (§4.5).
	Equivocator interface {
		Equivocate(txA, txB *types.Transaction) (*types.MicroBlock, *types.MicroBlock, error)
	}

	// KeyBlockAssembler builds (without submitting) the next key block;
	// live miners grind nonces on the result out of the event loop.
	KeyBlockAssembler interface {
		AssembleKeyBlock() *types.KeyBlock
	}

	// Strategic is implemented by clients whose mining strategy can be
	// inspected and switched at runtime (the scenario layer's
	// AdoptStrategy step). SetStrategy(nil) restores honest; switching
	// abandons any blocks the previous strategy was withholding.
	Strategic interface {
		StrategyName() string
		SetStrategy(s strategy.Strategy)
	}
)
