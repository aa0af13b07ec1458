// Package scenario is the composable fault-and-attack scripting layer: a
// Scenario is an ordered list of timed steps (partition the network, heal
// it, churn mining power, equivocate a leader, spike latency) that both the
// interactive cluster (root package) and the measured experiment runner
// (internal/experiment) execute on their event loops. New adversarial
// scenarios are a few lines of composition instead of a new copy of the
// harness's assembly code.
package scenario

import (
	"fmt"
	"time"

	"bitcoinng/internal/types"
)

// Runtime is the harness surface steps act on. harness.Fleet is its one
// implementation, under both the root package's Cluster and the experiment
// runner; steps stay harness-agnostic.
type Runtime interface {
	// Size returns the number of nodes.
	Size() int
	// Partition cuts the network into the given groups of node indices;
	// nodes not listed join group 0. Messages across groups are lost. An
	// out-of-range node is an error.
	Partition(groups ...[]int) error
	// Heal removes any partition.
	Heal()
	// SetMiningRate adjusts one node's simulated mining power
	// (blocks/sec) and starts its miner; zero pauses it (§5.2 churn). An
	// out-of-range node is an error.
	SetMiningRate(node int, blocksPerSec float64) error
	// ScaleLatency sets the absolute factor every link's propagation delay
	// is scaled by: calls replace one another rather than composing, and 1
	// restores the configured model. A factor ≤ 0 is an error.
	ScaleLatency(factor float64) error
	// Equivocate makes the given node — which must currently lead — sign
	// two conflicting microblocks and deliver them to disjoint parts of
	// the network (§4.5). Nil transactions produce empty siblings.
	Equivocate(leader int, txA, txB *types.Transaction) error
	// AdoptStrategy switches one node's mining strategy to the named
	// strategy (internal/strategy) from this step onward; withheld
	// blocks of the previous strategy are abandoned. An out-of-range node,
	// an unknown name, or a client without strategy support is an error.
	AdoptStrategy(node int, name string) error
	// Crash tears down one node: its in-memory state (chain tree, mempool,
	// pending fetches, unflushed relay queues, armed timers) is discarded
	// and it detaches from the network; only its durable block archive
	// survives. Crashing an out-of-range or already-down node is an error.
	Crash(node int) error
	// Restart rebuilds a crashed node from its durable prefix and rejoins
	// it to the network, kicking catch-up sync for whatever it missed.
	// Restarting an out-of-range or running node is an error.
	Restart(node int) error
	// SetLoss installs network-wide lossy-link fault probabilities (drop,
	// duplicate, reorder per message, each scaled by a per-link
	// deterministic factor); all-zero restores clean links. A probability
	// outside [0,1] is an error.
	SetLoss(drop, duplicate, reorder float64) error
	// Leader returns the index of the first running node that considers
	// itself the current epoch leader (Bitcoin-NG's microblock producer),
	// or -1 when none does — protocols without a leader role always return
	// -1. Scripts use it to target faults at whoever leads mid-epoch.
	Leader() int
}

// Step is one scripted action against a Runtime.
type Step struct {
	// Name labels the step in error reports.
	Name string
	// Do performs the action.
	Do func(rt Runtime) error
}

// TimedStep is a Step armed at an offset on the event loop.
type TimedStep struct {
	// Offset is the virtual time from the scenario's start.
	Offset time.Duration
	Step   Step
}

// At schedules a step at the given offset from the scenario's start.
func At(offset time.Duration, step Step) TimedStep {
	return TimedStep{Offset: offset, Step: step}
}

// Scenario is an ordered list of timed steps. Steps sharing an offset fire
// in declaration order.
type Scenario struct {
	Steps []TimedStep
}

// New composes a scenario from timed steps.
func New(steps ...TimedStep) *Scenario { return &Scenario{Steps: steps} }

// Add appends further steps and returns the scenario for chaining.
func (s *Scenario) Add(steps ...TimedStep) *Scenario {
	s.Steps = append(s.Steps, steps...)
	return s
}

// Duration returns the offset of the last-firing step.
func (s *Scenario) Duration() time.Duration {
	var max time.Duration
	for _, ts := range s.Steps {
		if ts.Offset > max {
			max = ts.Offset
		}
	}
	return max
}

// Schedule arms every step on the harness's event loop, offsets relative to
// now. A step error is reported to onErr (if non-nil) and does not stop the
// remaining steps.
func (s *Scenario) Schedule(after func(time.Duration, func()), rt Runtime, onErr func(TimedStep, error)) {
	for _, ts := range s.Steps {
		ts := ts
		after(ts.Offset, func() {
			if err := ts.Step.Do(rt); err != nil && onErr != nil {
				onErr(ts, err)
			}
		})
	}
}

// checkNode surfaces a bad node index as a step error — scripts are the
// public scripting surface, and an unchecked index would otherwise panic
// deep inside the event loop long after the typo.
func checkNode(rt Runtime, node int) error {
	if node < 0 || node >= rt.Size() {
		return fmt.Errorf("scenario: node %d out of range (network size %d)", node, rt.Size())
	}
	return nil
}

// Partition cuts the network into the given groups of node indices.
func Partition(groups ...[]int) Step {
	return Step{Name: "partition", Do: func(rt Runtime) error {
		for _, members := range groups {
			for _, id := range members {
				if err := checkNode(rt, id); err != nil {
					return err
				}
			}
		}
		return rt.Partition(groups...)
	}}
}

// Heal removes the partition; chains reconcile as the next blocks announce.
func Heal() Step {
	return Step{Name: "heal", Do: func(rt Runtime) error {
		rt.Heal()
		return nil
	}}
}

// Churn sets one node's mining rate (blocks/sec); zero pauses its miner.
func Churn(node int, blocksPerSec float64) Step {
	return Step{Name: "churn", Do: func(rt Runtime) error {
		if err := checkNode(rt, node); err != nil {
			return err
		}
		return rt.SetMiningRate(node, blocksPerSec)
	}}
}

// ChurnAll sets every node's mining rate — the §5.2 "mining power suddenly
// leaves/returns" experiments.
func ChurnAll(blocksPerSec float64) Step {
	return Step{Name: "churn-all", Do: func(rt Runtime) error {
		for i := 0; i < rt.Size(); i++ {
			if err := rt.SetMiningRate(i, blocksPerSec); err != nil {
				return err
			}
		}
		return nil
	}}
}

// Equivocate makes the given leader sign two conflicting microblocks, each
// carrying one of the transactions (nil for empty), delivered to disjoint
// parts of the network (§4.5).
func Equivocate(leader int, txA, txB *types.Transaction) Step {
	return Step{Name: "equivocate", Do: func(rt Runtime) error {
		if err := checkNode(rt, leader); err != nil {
			return err
		}
		return rt.Equivocate(leader, txA, txB)
	}}
}

// LatencySpike sets the absolute factor every link's propagation delay is
// scaled by, relative to the configured model. Spikes replace one another
// rather than composing — LatencySpike(2) then LatencySpike(3) is a 3x
// spike, not 6x — and LatencySpike(1) ends the spike. A factor ≤ 0 is a
// step error: zero latency would be indistinguishable from "unscaled" on
// some engines and stalls the sharded engine's lookahead.
func LatencySpike(factor float64) Step {
	return Step{Name: "latency-spike", Do: func(rt Runtime) error {
		if factor <= 0 {
			return fmt.Errorf("scenario: latency factor %v must be > 0", factor)
		}
		return rt.ScaleLatency(factor)
	}}
}

// AdoptStrategy switches one node's mining strategy to the named strategy
// (internal/strategy) from this step onward — attacks can
// switch on (and off, via "honest") mid-run.
func AdoptStrategy(node int, name string) Step {
	return Step{Name: "adopt-strategy", Do: func(rt Runtime) error {
		if err := checkNode(rt, node); err != nil {
			return err
		}
		return rt.AdoptStrategy(node, name)
	}}
}

// Crash tears down one node's in-memory state and detaches it from the
// network; only its durable block archive survives for a later Restart.
func Crash(node int) Step {
	return Step{Name: "crash", Do: func(rt Runtime) error {
		if err := checkNode(rt, node); err != nil {
			return err
		}
		return rt.Crash(node)
	}}
}

// Restart rebuilds a crashed node from its durable prefix, rejoins it to the
// network, and kicks catch-up sync for the blocks it missed while down.
func Restart(node int) Step {
	return Step{Name: "restart", Do: func(rt Runtime) error {
		if err := checkNode(rt, node); err != nil {
			return err
		}
		return rt.Restart(node)
	}}
}

// Lossy installs network-wide lossy-link fault probabilities: each message
// is independently dropped, duplicated, or delayed (reordered) with the
// given per-message probabilities, scaled per directed link by a
// seed-deterministic susceptibility factor. Lossy(0, 0, 0) restores clean
// links. Probabilities outside [0,1] are a step error.
func Lossy(drop, duplicate, reorder float64) Step {
	return Step{Name: "lossy", Do: func(rt Runtime) error {
		for _, p := range []float64{drop, duplicate, reorder} {
			if p < 0 || p > 1 {
				return fmt.Errorf("scenario: loss probability %v outside [0,1]", p)
			}
		}
		return rt.SetLoss(drop, duplicate, reorder)
	}}
}

// Call wraps an arbitrary action — mine a block, assert mid-run state,
// print a phase report — as a named step.
func Call(name string, fn func(rt Runtime) error) Step {
	return Step{Name: name, Do: fn}
}
