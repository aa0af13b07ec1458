// Package protocol builds the consensus clients of the three protocols the
// paper compares: Bitcoin and Bitcoin-NG (§7–8), with GHOST as the §9
// baseline. Every way of running a node — the Fleet under the root
// package's Cluster and the experiment runner (internal/harness), and the
// live binary (cmd/ngnode) — boots its clients through harness.Boot, which
// calls Build. Build takes one node.Config for every protocol and picks the
// constructor, and with it the fork choice; a constructor refuses an input
// its client cannot honour (Bitcoin and GHOST refuse censorship and
// non-honest mining strategies), so nothing is silently dropped.
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
	"bitcoinng/internal/core"
	"bitcoinng/internal/ghost"
	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
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

// Spec names the client Build constructs and the config it is built from.
type Spec struct {
	Protocol Protocol
	node.Config
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

// Build constructs a client of spec.Protocol on env from spec.Config,
// unchanged. An unknown name returns an error wrapping ErrUnknownProtocol
// that lists the known ones.
func Build(env node.Env, spec Spec) (Client, error) {
	var (
		n   *bitcoin.Node
		err error
	)
	switch spec.Protocol {
	case Bitcoin:
		n, err = bitcoin.New(env, spec.Config, nil)
	case GHOST:
		n, err = ghost.New(env, spec.Config)
	case BitcoinNG:
		ng, err := core.New(env, spec.Config)
		if err != nil {
			return nil, err
		}
		return ngClient{ng}, nil
	default:
		return nil, fmt.Errorf("%w %q (known: %s)",
			ErrUnknownProtocol, spec.Protocol, strings.Join(Names(), ", "))
	}
	if err != nil {
		return nil, err
	}
	return bitcoinClient{n}, nil
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
