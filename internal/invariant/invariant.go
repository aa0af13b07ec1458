// Package invariant is the online safety-property checker of the chaos
// subsystem: a catalogue of Bitcoin-NG's paper-claimed invariants (value
// conservation, the 40/60 fee split, single leadership per epoch, bounded
// honest forks, post-partition convergence) evaluated against every node's
// live chain state at configurable sim-time ticks and once more at run end.
//
// The checkers deliberately re-derive every property from first principles —
// walking main chains, summing UTXO entries, re-verifying microblock
// signatures — instead of trusting the validation pipeline's verdicts: the
// point is to catch the pipeline (cache replay, sharded delivery, reorg
// bookkeeping) lying, so sharing its code would be circular. A state
// assembled by a buggy or deliberately permissive rule set fails here even
// though it passed validation; the violation-injection tests rely on exactly
// that.
//
// harness.Fleet, under both the experiment runner and the interactive
// cluster, builds a Snapshot at quiescent points and feeds it to an Engine;
// violations carry the virtual time and node of first observation, so
// reports stay byte-identical across the sequential and sharded execution
// engines.
package invariant

import (
	"fmt"
	"time"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// DurableStore is the read side of a node's durable block archive, as the
// crash/recovery invariants see it. Both blockstore.Store (file-backed) and
// blockstore.Mem (the simulation's crash-surviving archive) satisfy it.
type DurableStore interface {
	// Hashes returns the stored block hashes in append order.
	Hashes() []crypto.Hash
	// Contains reports whether the block is stored.
	Contains(h crypto.Hash) bool
}

// NodeState is one node's view at snapshot time.
type NodeState struct {
	// ID is the node's index in the network.
	ID int
	// Chain is the node's live chain state (read-only use; snapshots are
	// taken at quiescent points where no event is mutating it). For a down
	// node this is the pre-crash client's frozen state; invariants skip it.
	Chain *chain.State
	// Strategy is the node's active mining strategy name; consistency
	// invariants only bind nodes running "honest" (an attacker's withheld
	// private chain is supposed to diverge).
	Strategy string
	// Group is the node's partition group (0 when the network is whole).
	Group int
	// Down reports the node is crashed: detached from the network with its
	// in-memory state torn down. Every invariant skips down nodes — their
	// frozen pre-crash state is legitimately stale.
	Down bool
	// LastRestart is the virtual time the node last completed a Restart (0
	// if it never crashed); resync-convergence holds its fire for a grace
	// period after it.
	LastRestart int64
	// Durable is the node's durable block archive, nil when the harness
	// runs without persistence.
	Durable DurableStore
}

// Honest reports whether the node mines honestly.
func (n *NodeState) Honest() bool { return n.Strategy == "" || n.Strategy == "honest" }

// Snapshot is everything the invariant catalogue sees at one check point.
type Snapshot struct {
	// Now is the virtual time of the check (Unix nanoseconds on the sim
	// clock).
	Now int64
	// Final marks the end-of-run check, after mining stopped and the grace
	// period let in-flight blocks settle; expensive full-history checks run
	// only here.
	Final bool
	// Params are the consensus parameters of the run.
	Params types.Params
	// Nodes holds every node, in index order.
	Nodes []NodeState
	// Partitioned reports whether a partition is currently in force; Group
	// fields are only meaningful when it is.
	Partitioned bool
	// LastDisruption is the virtual time of the most recent event that can
	// legitimately desynchronize nodes — a partition, a heal, a latency
	// rescale, a strategy switch. Consistency invariants hold their fire
	// until the network has had time to settle after it.
	LastDisruption int64
}

// settledFor reports whether at least d has elapsed since the last
// disruption.
func (s *Snapshot) settledFor(d time.Duration) bool {
	return s.Now-s.LastDisruption >= int64(d)
}

// Violation is one observed invariant failure.
type Violation struct {
	// Invariant is the failing invariant's name.
	Invariant string
	// Node is the node the violation was observed on (-1 for properties of
	// the network as a whole).
	Node int
	// At is the virtual time of first observation.
	At int64
	// Msg describes the failure with the observed and expected values.
	Msg string
	// Count is how many checks observed this (invariant, node) pair in
	// violation; the Msg is from the first.
	Count int
}

// String formats the violation for reports.
func (v Violation) String() string {
	where := "network"
	if v.Node >= 0 {
		where = fmt.Sprintf("node %d", v.Node)
	}
	return fmt.Sprintf("[%s] %s at %v: %s (seen %dx)",
		v.Invariant, where, time.Duration(v.At), v.Msg, v.Count)
}

// Invariant is one checkable safety property. Check examines the snapshot
// and reports every violation through report; implementations must be
// deterministic functions of the snapshot (no clocks, no map-order
// dependence in what they report).
type Invariant interface {
	// Name identifies the invariant in violations and documentation.
	Name() string
	// Check evaluates the property. node is -1 for network-level findings.
	Check(s *Snapshot, report func(node int, msg string))
}

// Engine evaluates a fixed catalogue of invariants over successive
// snapshots, deduplicating violations by (invariant, node) so a persistent
// breakage yields one violation with a count instead of one per tick.
type Engine struct {
	invs  []Invariant
	index map[[2]int]int // (invariant idx, node+1) -> violation idx
	viols []Violation
}

// NewEngine creates an engine over the given catalogue.
func NewEngine(invs ...Invariant) *Engine {
	return &Engine{invs: invs, index: make(map[[2]int]int)}
}

// Check runs every invariant against the snapshot, recording violations.
func (e *Engine) Check(s *Snapshot) {
	for i, inv := range e.invs {
		i := i
		inv.Check(s, func(node int, msg string) {
			key := [2]int{i, node + 1}
			if at, ok := e.index[key]; ok {
				e.viols[at].Count++
				return
			}
			e.index[key] = len(e.viols)
			e.viols = append(e.viols, Violation{
				Invariant: inv.Name(),
				Node:      node,
				At:        s.Now,
				Msg:       msg,
				Count:     1,
			})
		})
	}
}

// Violations returns every recorded violation in first-observation order.
// The slice is the engine's own; callers must not mutate it.
func (e *Engine) Violations() []Violation { return e.viols }

// Options tunes the default catalogue.
type Options struct {
	// ForkBound is the k of no-honest-fork-beyond-k: the maximum key-block
	// depth honest main chains may diverge while connected. Zero takes 6.
	ForkBound int
	// ConvergenceDepth is the (much tighter) divergence allowed once the
	// network has settled after its last disruption. Zero takes 2.
	ConvergenceDepth int
	// SettleGrace is how long after a disruption the consistency invariants
	// stay quiet, letting gossip re-synchronize the (re)connected groups.
	// Zero takes 2 key-block intervals at check time.
	SettleGrace time.Duration
}

// Defaults returns the full built-in catalogue.
func Defaults(opts Options) []Invariant {
	if opts.ForkBound <= 0 {
		opts.ForkBound = 6
	}
	if opts.ConvergenceDepth <= 0 {
		opts.ConvergenceDepth = 2
	}
	return []Invariant{
		ValueConservation(),
		FeeSplit(),
		SingleLeader(),
		ForkBound(opts.ForkBound, opts.SettleGrace),
		PartitionConsistency(opts.ForkBound, opts.SettleGrace),
		Convergence(opts.ConvergenceDepth, 2*opts.SettleGrace),
		DurablePrefix(),
		ResyncConvergence(opts.ForkBound, 2*opts.SettleGrace),
	}
}
