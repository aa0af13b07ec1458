// Package protocol builds the consensus clients: every way of running a
// node — interactive clusters (the root package), measured experiments
// (internal/experiment), and live binaries (cmd/ngnode) — assembles its
// clients through one Build call over the three protocols the paper
// compares: Bitcoin and Bitcoin-NG (§7–8), with GHOST as the §9 baseline.
//
// A client satisfies Client: the universal surface the harnesses drive.
// Everything beyond it — leadership, microblocks, equivocation, fraud
// proofs, live key-block assembly, mining strategies — is Bitcoin-NG's, and
// a harness reaches it through Client.NG, which is nil for the others.
package protocol

import (
	"errors"
	"fmt"
	"strings"

	"bitcoinng/internal/bitcoin"
	"bitcoinng/internal/blockstore"
	"bitcoinng/internal/core"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/ghost"
	"bitcoinng/internal/node"
	"bitcoinng/internal/strategy"
	"bitcoinng/internal/types"
	"bitcoinng/internal/validate"
)

// Protocol names a consensus client implementation.
type Protocol string

// The protocols Build knows.
const (
	// Bitcoin is the baseline Nakamoto blockchain (§3 of the paper).
	Bitcoin Protocol = "bitcoin"
	// BitcoinNG is the paper's contribution (§4): key blocks elect
	// leaders, microblocks serialize transactions.
	BitcoinNG Protocol = "bitcoin-ng"
	// GHOST is the heaviest-subtree baseline discussed in §9.
	GHOST Protocol = "ghost"
)

// ErrUnknownProtocol is wrapped by Build when the requested protocol is none
// of the known ones; every harness surfaces this one error for a bad name.
var ErrUnknownProtocol = errors.New("protocol: unknown protocol")

// Spec carries everything a client constructor needs. One Spec vocabulary
// serves every protocol. CensorTransactions and Strategy are Bitcoin-NG's
// alone: Bitcoin and GHOST clients do not read them, and the simulator
// harnesses refuse a fleet that sets them on such a client.
type Spec struct {
	// Protocol selects the client Build constructs.
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
	// leading (§5.2 "Censorship Resistance").
	CensorTransactions bool
	// ConnectCache shares memoized connect-stage verdicts (UTXO deltas,
	// fees) between every node whose validation rules fingerprint matches
	// — the harnesses pass validate.Shared() so the 2nd..Nth node
	// connecting a block replays the first node's work. nil validates
	// everything locally.
	ConnectCache *validate.Cache
	// Blocks names every block once for a whole simulated fleet: the
	// harness passes its store factory's table, so each node's block tree
	// keeps one slot per block instead of a map of its own. nil keeps a
	// private table (live nodes).
	Blocks *blockstore.Table
	// Strategy is the node's mining strategy (internal/strategy): which
	// block its key blocks extend, publish-vs-withhold decisions, and the
	// coinbase fee split. nil runs honest. Strategies bend production
	// choices only — validation of received blocks is unaffected, so the
	// connect cache stays shareable across strategies.
	Strategy strategy.Strategy
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
	// NG returns the Bitcoin-NG node behind the client — leadership,
	// microblocks, equivocation, fraud proofs, key-block assembly and the
	// mining strategy — or nil for Bitcoin and GHOST.
	NG() *core.Node
}

// Build constructs a client of spec.Protocol on env. An unknown name returns
// an error wrapping ErrUnknownProtocol that lists the known ones.
func Build(env node.Env, spec Spec) (Client, error) {
	switch spec.Protocol {
	case Bitcoin, GHOST:
		newNode := bitcoin.New
		if spec.Protocol == GHOST {
			newNode = ghost.New
		}
		n, err := newNode(env, bitcoin.Config{
			Params:          spec.Params,
			Key:             spec.Key,
			Genesis:         spec.Genesis,
			Recorder:        spec.Recorder,
			SimulatedMining: spec.SimulatedMining,
			ConnectCache:    spec.ConnectCache,
			Blocks:          spec.Blocks,
		})
		if err != nil {
			return nil, err
		}
		return bitcoinClient{n}, nil
	case BitcoinNG:
		n, err := core.New(env, core.Config{
			Params:             spec.Params,
			Key:                spec.Key,
			Genesis:            spec.Genesis,
			Recorder:           spec.Recorder,
			SimulatedMining:    spec.SimulatedMining,
			CensorTransactions: spec.CensorTransactions,
			ConnectCache:       spec.ConnectCache,
			Blocks:             spec.Blocks,
			Strategy:           spec.Strategy,
		})
		if err != nil {
			return nil, err
		}
		return ngClient{n}, nil
	}
	return nil, fmt.Errorf("%w %q (known: %s)",
		ErrUnknownProtocol, spec.Protocol, strings.Join(Names(), ", "))
}

// Payload returns the block kind that carries the protocol's transaction
// payload — KindMicro for Bitcoin-NG, KindPow otherwise; the experiment
// harness counts payload blocks toward its stop rule.
func Payload(name Protocol) types.BlockKind {
	if name == BitcoinNG {
		return types.KindMicro
	}
	return types.KindPow
}

// Names returns the known protocol names, sorted.
func Names() []string {
	return []string{string(Bitcoin), string(BitcoinNG), string(GHOST)}
}

// bitcoinClient adapts *bitcoin.Node (which GHOST shares) to Client.
type bitcoinClient struct{ *bitcoin.Node }

func (c bitcoinClient) Base() *node.Base       { return c.Node.Base }
func (c bitcoinClient) MineBlock() types.Block { return c.Node.MineBlock() }
func (bitcoinClient) NG() *core.Node           { return nil }

// ngClient adapts *core.Node to Client.
type ngClient struct{ *core.Node }

func (c ngClient) Base() *node.Base       { return c.Node.Base }
func (c ngClient) MineBlock() types.Block { return c.Node.MineKeyBlock() }
func (c ngClient) NG() *core.Node         { return c.Node }
