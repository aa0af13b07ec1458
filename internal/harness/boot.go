// Package harness is the one kernel under every way of running a network:
// the interactive Cluster (root package) and the measured experiment runner
// (internal/experiment) are facades over a Fleet, and cmd/ngnode starts a
// live node through the same Boot. It owns node assembly, store lifecycle,
// crash/restart, the single scenario.Runtime implementation, and invariant
// snapshotting. The variation points are the engine a Fleet runs on (one
// sim.Loop or the sharded windowed engine) and the node.Env handed to Boot
// (the emulated network here, live TCP in ngnode).
package harness

import (
	"fmt"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/node"
	"bitcoinng/internal/protocol"
	"bitcoinng/internal/store"
	"bitcoinng/internal/types"
	"bitcoinng/internal/validate"
)

// Boot is the restart sequence, and its only home: first build, process-level
// resume over a used store root, Fleet.Restart, and ngnode start-up all come
// through here.
//
//  1. Reset the ledger: the chain index is the durable truth and step 4
//     re-derives UTXO state from it, so whatever the ledger store held (a
//     journal torn by a hard crash included) is never trusted. Reset precedes
//     Build because chain.New applies genesis into the store.
//  2. Build the client through the protocol registry.
//  3. Attach the index as persistence hook and as the body archive Compact
//     evicts against; wire, if non-nil, finishes the node's wiring.
//  4. Replay the index straight into the chain — no gossip, no re-persist, no
//     metric events (those fired in the first life) — each block under its
//     recorded arrival time, so the first-seen tie-break resolves as it did
//     before. The index holds only blocks this node validated and persisted,
//     parent before child: one that does not connect is corruption or a
//     rules change, not recoverable skew. Replay trusts no record: every
//     block passes CheckBlock and the connect stage again. What it does not
//     repeat is an ed25519 check this process already made on the same bytes:
//     a block the connect cache vouches for (chain.State.AdoptStage1 — the
//     node's first life, or a neighbour's, connected it) keeps its signature
//     verdicts; the rest — a cold process, a foreign or disabled cache — are
//     verified here on the worker pool, off the serial AddBlock, the way the
//     live transport warms a decoded block before posting it.
//  5. Re-arm leadership off the recovered tip, since replay bypassed
//     processBlock (core's tip-change hook ignores the AddResult).
//
// The caller then routes the env's deliveries to client.HandleMessage. Errors
// are left unprefixed for the caller to wrap.
func Boot(env node.Env, spec protocol.Spec, ledger store.UTXO, index store.ChainIndex, wire func(*node.Base)) (protocol.Client, error) {
	if err := ledger.Reset(); err != nil {
		return nil, fmt.Errorf("reset ledger store: %w", err)
	}
	spec.UTXO = ledger
	client, err := protocol.Build(env, spec)
	if err != nil {
		return nil, err
	}
	base := client.Base()
	base.Persist = index
	base.State.Store().AttachBodySource(index)
	if wire != nil {
		wire(base)
	}
	if err := index.Replay(func(b types.Block, receivedAt int64) error {
		if !base.State.AdoptStage1(b) {
			validate.SharedPool().WarmBlock(b)
		}
		res, err := base.State.AddBlock(b, receivedAt)
		if err != nil {
			return err
		}
		if res.Status == chain.StatusOrphan || res.Status == chain.StatusInvalid {
			return fmt.Errorf("block %s does not connect", b.Hash().Short())
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("archive replay: %w", err)
	}
	if base.OnTipChange != nil {
		base.OnTipChange(nil)
	}
	return client, nil
}
