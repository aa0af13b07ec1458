package harness

import (
	"fmt"
	"slices"

	"bitcoinng/internal/protocol"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/strategy"
	"bitcoinng/internal/types"
)

// This file is the scenario.Runtime implementation — the only one; the
// interface documents each method's contract. Steps run at quiescent points
// (armed through After/Schedule, or called between Run slices), so they may
// touch any node and the network model directly.

// node bounds-checks a node index.
func (f *Fleet) node(i int) (*Node, error) {
	if i < 0 || i >= len(f.nodes) {
		return nil, fmt.Errorf("harness: node %d out of range (network size %d)", i, len(f.nodes))
	}
	return f.nodes[i], nil
}

// disrupted timestamps a disruption for the invariants' settle grace.
func (f *Fleet) disrupted() { f.lastDisruption = f.eng.now() }

// Size returns the number of nodes.
func (f *Fleet) Size() int { return len(f.nodes) }

// Partition cuts the network into the given groups of node indices; nodes
// not listed join group 0. Messages across groups are lost until Heal.
func (f *Fleet) Partition(groups ...[]int) error {
	assignment, err := simnet.PartitionAssignment(len(f.nodes), groups)
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	f.net.SetPartition(assignment)
	f.partition = assignment
	f.disrupted()
	return nil
}

// Heal removes the partition; chains reconcile as the next blocks announce.
func (f *Fleet) Heal() {
	f.net.SetPartition(nil)
	f.partition = nil
	f.disrupted()
}

// SetMiningRate adjusts one node's simulated mining power (blocks/sec) and
// starts its miner; zero pauses it (§5.2 churn).
func (f *Fleet) SetMiningRate(node int, blocksPerSec float64) error {
	nd, err := f.node(node)
	if err != nil {
		return err
	}
	nd.Miner.SetRate(blocksPerSec)
	nd.Miner.Start()
	return nil
}

// ScaleLatency sets the absolute factor (> 0) every link's propagation delay
// is scaled by: calls replace one another rather than composing, and 1
// restores the configured model.
func (f *Fleet) ScaleLatency(factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("harness: latency factor %v must be > 0", factor)
	}
	f.net.ScaleLatency(factor)
	f.disrupted()
	return nil
}

// AdoptStrategy switches one node's mining strategy to the registered name;
// "honest" restores protocol behaviour and abandons anything the previous
// strategy was withholding.
func (f *Fleet) AdoptStrategy(node int, name string) error {
	nd, err := f.node(node)
	if err != nil {
		return err
	}
	sc, ok := nd.Client.(protocol.Strategic)
	if !ok {
		return fmt.Errorf("harness: node %d (%s): client cannot switch mining strategy", node, f.spec.Protocol)
	}
	s, err := strategy.New(name)
	if err != nil {
		return fmt.Errorf("harness: node %d (%s): %w", node, f.spec.Protocol, err)
	}
	sc.SetStrategy(s)
	f.disrupted()
	return nil
}

// PublishEquivocation makes the given node — which must currently lead — sign
// two conflicting microblocks on its tip, each carrying one of the
// transactions (nil for empty), publishing the first normally and slipping the
// second to a neighbour, the first up one after it in index order: the
// split-brain double-spend of §4.5. Honest nodes that see both poison the
// leader once they lead. A leader with no up neighbour is an error: the
// victim must be able to fetch what it lacks from the leader.
func (f *Fleet) PublishEquivocation(leader int, txA, txB *types.Transaction) (*types.MicroBlock, *types.MicroBlock, error) {
	nd, err := f.node(leader)
	if err != nil {
		return nil, nil, err
	}
	if nd.Down {
		return nil, nil, fmt.Errorf("harness: node %d is down", leader)
	}
	victim := -1
	for i := 1; i < len(f.nodes) && victim < 0; i++ {
		if v := (leader + i) % len(f.nodes); !f.nodes[v].Down && slices.Contains(f.net.Peers(leader), v) {
			victim = v
		}
	}
	if victim < 0 {
		return nil, nil, fmt.Errorf("harness: node %d has no up neighbour to equivocate to", leader)
	}
	eq, ok := nd.Client.(protocol.Equivocator)
	if !ok {
		return nil, nil, fmt.Errorf("harness: node %d (%s): client cannot equivocate", leader, f.spec.Protocol)
	}
	mbA, mbB, err := eq.Equivocate(txA, txB)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: node %d (%s): %w", leader, f.spec.Protocol, err)
	}
	nd.Base().ProcessBlock(mbA, -1)
	f.nodes[victim].Base().ProcessFn(mbB, leader)
	return mbA, mbB, nil
}

// Equivocate is the scenario.Runtime form of PublishEquivocation, discarding
// the microblocks.
func (f *Fleet) Equivocate(leader int, txA, txB *types.Transaction) error {
	_, _, err := f.PublishEquivocation(leader, txA, txB)
	return err
}

// Crash tears down one running node the way a power cut would: its miner
// stops, bumping the env generation neuters every timer the incarnation armed
// (the microblock schedule, fetch backoffs, tx flushes), the network marks it
// down so in-flight and future messages to or from it are lost, and the
// client — chain tree, mempool, pending fetches, relay queues — is abandoned
// wholesale. Only the durable stores survive for Restart.
func (f *Fleet) Crash(node int) error {
	nd, err := f.node(node)
	if err != nil {
		return err
	}
	if nd.Down {
		return fmt.Errorf("harness: node %d is already down", node)
	}
	nd.Down = true
	nd.Miner.Stop()
	nd.env.Bump()
	f.net.SetNodeDown(node, true)
	f.disrupted()
	return nil
}

// Restart rebuilds a crashed node through Boot — a fresh client on the same
// env and key, the chain index replayed into it — reattaches it to the
// network, and kicks catch-up sync for whatever it missed while down.
func (f *Fleet) Restart(node int) error {
	nd, err := f.node(node)
	if err != nil {
		return err
	}
	if !nd.Down {
		return fmt.Errorf("harness: node %d is not down", node)
	}
	if err := f.boot(nd); err != nil {
		return fmt.Errorf("harness: node %d restart: %w", node, err)
	}
	nd.Down = false
	nd.LastRestart = f.eng.now()
	f.net.SetNodeDown(node, false)
	nd.Miner.Start()
	nd.Base().Sync.Start(-1)
	f.disrupted()
	return nil
}

// SetLoss installs network-wide lossy-link fault probabilities: each message
// is independently dropped, duplicated, or delayed, scaled per directed link
// by a seed-deterministic susceptibility factor. All-zero restores clean links.
func (f *Fleet) SetLoss(drop, duplicate, reorder float64) error {
	for _, p := range []float64{drop, duplicate, reorder} {
		if p < 0 || p > 1 {
			return fmt.Errorf("harness: loss probability %v outside [0,1]", p)
		}
	}
	f.net.SetLoss(simnet.Loss{Drop: drop, Duplicate: duplicate, Reorder: reorder})
	f.disrupted()
	return nil
}

// Leader returns the index of the first running node that considers itself
// the current epoch leader, or -1 when none does (including protocols
// without a leader role).
func (f *Fleet) Leader() int {
	for _, nd := range f.nodes {
		if !nd.Down && nd.IsLeader() {
			return nd.ID
		}
	}
	return -1
}
