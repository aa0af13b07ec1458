// Package strategy is the mining-strategy engine: the set of choices a
// Bitcoin-NG miner is free to make without violating consensus — which block
// its next key block extends, whether to publish or withhold blocks it
// produced, and how its coinbase splits the previous epoch's fees —
// extracted behind one interface that internal/core consults instead of
// hard-coding honest behaviour.
//
// The paper's §5 incentive bounds exist precisely because rational
// deviations are possible; this package turns those deviations into
// first-class experiment inputs. New builds the four strategies:
//
//   - "honest": the paper's protocol-following miner.
//   - "selfish": Eyal-Sirer key-block withholding ([21]; §5.1 "Heaviest
//     Chain Extension" — microblocks carry no weight, so the attack
//     operates on key blocks exactly as on Bitcoin blocks).
//   - "greedymine": the microblock-ignoring extension attack of Greedy-Mine
//     (Hu et al., 2023): key blocks extend the epoch's key block directly,
//     pruning its microblocks so their fee split is never paid and the
//     transactions return to the pool for the attacker to re-serialize.
//   - "feethief": a leader that claims the previous leader's 40% fee share
//     for itself; honest validators reject such key blocks (core's
//     ErrFeeSplitShort), so the strategy documents-by-execution that the
//     split is consensus, not a convention.
//
// Every hook runs on the owning node's event goroutine — strategies need no
// locking, and their decisions are a deterministic function of the node's
// local view, which keeps sharded-engine runs byte-identical to sequential
// ones (DESIGN.md §7).
package strategy

import (
	"fmt"
	"sort"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/types"
)

// Action is a strategy's verdict on a block the node just produced.
type Action int

const (
	// Publish processes the block locally and announces it to peers: the
	// honest path.
	Publish Action = iota
	// Withhold processes the block locally — the node keeps mining on it —
	// but suppresses the announcement; the strategy releases it later (or
	// abandons it).
	Withhold
)

// String returns the action name.
func (a Action) String() string {
	switch a {
	case Publish:
		return "publish"
	case Withhold:
		return "withhold"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// View is the read-only node surface strategies decide on.
type View interface {
	// NodeID returns the deciding node's index.
	NodeID() int
	// Now returns the current time in Unix nanoseconds.
	Now() int64
	// Tip returns the node's current main-chain tip, including any blocks
	// the strategy has withheld (the local view is the attacker's view).
	Tip() *chain.Node
	// Leading reports whether the node currently leads (the tip epoch's
	// key block is its own).
	Leading() bool
}

// Strategy makes the mining choices consensus leaves open. All hooks run on
// the node's event goroutine; implementations keep per-node state freely but
// must be deterministic functions of the views and nodes they were shown.
type Strategy interface {
	// Name returns the strategy's name, the one New takes.
	Name() string

	// KeyBlockParent picks the block the node's next key block extends.
	// The honest choice is v.Tip(); returning nil falls back to it.
	KeyBlockParent(v View) *chain.Node

	// SplitFee divides the previous epoch's microblock fees between this
	// node's key-block coinbase (mine) and the previous leader (prev).
	// Honest strategies return the params split (§4.4: 40% to the
	// serializing leader, 60% to the next); claiming more than `mine`
	// shorts the previous leader and honest validators reject the block.
	SplitFee(params types.Params, epochFees types.Amount) (mine, prev types.Amount)

	// OnKeyBlockMined decides a freshly assembled key block's fate before
	// it is processed.
	OnKeyBlockMined(v View, b *types.KeyBlock) Action

	// OnMicroBlockMined decides a freshly signed microblock's fate before
	// it is processed.
	OnMicroBlockMined(v View, b *types.MicroBlock) Action

	// OnOwnBlockAdded observes the tree node of a block this node produced
	// right after it entered the local tree, along with the action that
	// admitted it — withholding strategies record their private chain here.
	OnOwnBlockAdded(v View, n *chain.Node, act Action)

	// OnExternalBlock observes a block from a peer entering the node's
	// tree and returns previously withheld blocks to announce now, oldest
	// first (a release must include the withheld microblocks between key
	// blocks, or peers chase the gap as orphans).
	OnExternalBlock(v View, n *chain.Node) (release []types.Block)
}

// Honest is the paper's protocol-following strategy and the zero-config
// default. The other strategies embed it and override the hooks they bend.
type Honest struct{}

// Name implements Strategy.
func (Honest) Name() string { return "honest" }

// KeyBlockParent implements Strategy: extend the current tip.
func (Honest) KeyBlockParent(v View) *chain.Node { return v.Tip() }

// SplitFee implements Strategy: the params split — the previous leader's
// LeaderFeeFrac share is paid in full.
func (Honest) SplitFee(params types.Params, epochFees types.Amount) (mine, prev types.Amount) {
	prev, mine = params.SplitFee(epochFees)
	return mine, prev
}

// OnKeyBlockMined implements Strategy: publish immediately.
func (Honest) OnKeyBlockMined(View, *types.KeyBlock) Action { return Publish }

// OnMicroBlockMined implements Strategy: publish immediately.
func (Honest) OnMicroBlockMined(View, *types.MicroBlock) Action { return Publish }

// OnOwnBlockAdded implements Strategy: nothing to track.
func (Honest) OnOwnBlockAdded(View, *chain.Node, Action) {}

// OnExternalBlock implements Strategy: nothing withheld, nothing to release.
func (Honest) OnExternalBlock(View, *chain.Node) []types.Block { return nil }

// Built-in strategy names.
const (
	HonestName     = "honest"
	SelfishName    = "selfish"
	GreedyMineName = "greedymine"
	FeeThiefName   = "feethief"
)

// ErrUnknown is returned (wrapped) for a name that is none of the built-ins.
var ErrUnknown = fmt.Errorf("strategy: unknown strategy")

// New returns a fresh instance of the named strategy; strategies carry
// per-node state, so every node gets its own. The empty name is the honest
// default.
func New(name string) (Strategy, error) {
	switch name {
	case "", HonestName:
		return Honest{}, nil
	case SelfishName:
		return NewSelfish(), nil
	case GreedyMineName:
		return GreedyMine{}, nil
	case FeeThiefName:
		return FeeThief{}, nil
	}
	return nil, fmt.Errorf("%w %q (known: %v)", ErrUnknown, name, Names())
}

// Names returns the built-in strategy names, sorted.
func Names() []string {
	return []string{FeeThiefName, GreedyMineName, HonestName, SelfishName}
}

// ForNodes validates a node-index→strategy-name assignment against the
// network size and instantiates one fresh strategy per assigned node; the
// returned slice holds nil for unassigned (honest) nodes. Errors are left
// unprefixed for callers to wrap with their package name.
func ForNodes(nodes int, byNode map[int]string) ([]Strategy, error) {
	if len(byNode) == 0 {
		return make([]Strategy, nodes), nil
	}
	// Validate in sorted node order so that when several entries are bad,
	// the error reported (and hence differential digests of failing runs)
	// does not depend on map iteration order.
	ids := make([]int, 0, len(byNode))
	for id := range byNode {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]Strategy, nodes)
	for _, id := range ids {
		if id < 0 || id >= nodes {
			return nil, fmt.Errorf("strategy node %d out of range (network size %d)", id, nodes)
		}
		s, err := New(byNode[id])
		if err != nil {
			return nil, err
		}
		out[id] = s
	}
	return out, nil
}
