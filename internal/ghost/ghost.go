// Package ghost assembles the GHOST baseline the paper discusses and
// evaluated (§9): Bitcoin's block format and economics with the
// heaviest-subtree fork-choice rule of Sompolinsky and Zohar, in the
// propagate-all-blocks variant (our gossip layer already relays side-chain
// blocks, which is exactly the configuration §9 measured and found to
// underperform at high rates due to relay overhead).
package ghost

import (
	"bitcoinng/internal/bitcoin"
	"bitcoinng/internal/chain"
	"bitcoinng/internal/node"
)

// Node is a Bitcoin node running the GHOST fork-choice rule.
type Node = bitcoin.Node

// New builds a GHOST node: identical to a Bitcoin node except that fork
// choice descends into the child with the heaviest subtree instead of
// following cumulative chain weight.
func New(env node.Env, cfg node.Config) (*Node, error) {
	return bitcoin.New(env, cfg, &chain.GHOST{
		RandomTieBreak: cfg.Params.RandomTieBreak,
		Rand:           env.Rand(),
	})
}
