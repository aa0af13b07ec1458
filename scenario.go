package bitcoinng

import (
	"time"

	"bitcoinng/internal/scenario"
)

// The composable Scenario API, re-exported from internal/scenario: a
// Scenario is an ordered list of timed steps that Cluster.Play (or
// ClusterConfig.Scenario / ExperimentConfig.Scenario) executes on the event
// loop. Steps are harness-agnostic — the same script runs against an
// interactive cluster and a measured experiment.
type (
	// Scenario is an ordered list of timed steps.
	Scenario = scenario.Scenario
	// ScenarioStep is one scripted action.
	ScenarioStep = scenario.Step
	// TimedStep is a ScenarioStep armed at an offset on the event loop.
	TimedStep = scenario.TimedStep
	// ScenarioRuntime is the harness surface steps act on; Cluster and
	// the experiment runner implement it.
	ScenarioRuntime = scenario.Runtime
)

// NewScenario composes a scenario from timed steps.
func NewScenario(steps ...TimedStep) *Scenario { return scenario.New(steps...) }

// At schedules a step at the given offset from the scenario's start.
func At(offset time.Duration, step ScenarioStep) TimedStep { return scenario.At(offset, step) }

// Partition cuts the network into the given groups of node indices; nodes
// not listed join group 0.
func Partition(groups ...[]int) ScenarioStep { return scenario.Partition(groups...) }

// Heal removes the partition; chains reconcile as the next blocks announce.
func Heal() ScenarioStep { return scenario.Heal() }

// Churn sets one node's mining rate (blocks/sec); zero pauses its miner.
func Churn(node int, blocksPerSec float64) ScenarioStep { return scenario.Churn(node, blocksPerSec) }

// ChurnAll sets every node's mining rate — the §5.2 "mining power suddenly
// leaves/returns" experiments.
func ChurnAll(blocksPerSec float64) ScenarioStep { return scenario.ChurnAll(blocksPerSec) }

// Equivocate makes the given leader sign two conflicting microblocks, each
// carrying one of the transactions (nil for empty), delivered to disjoint
// parts of the network (§4.5).
func Equivocate(leader int, txA, txB *Transaction) ScenarioStep {
	return scenario.Equivocate(leader, txA, txB)
}

// LatencySpike sets the absolute factor every link's propagation delay is
// scaled by, relative to the configured model: spikes replace one another
// rather than composing, LatencySpike(1) ends the spike, and a factor ≤ 0
// is a step error.
func LatencySpike(factor float64) ScenarioStep { return scenario.LatencySpike(factor) }

// AdoptStrategy switches one node's mining strategy to a named one
// ("honest", "selfish", "greedymine" or "feethief") mid-run — attacks can
// switch on, and back off, on schedule.
func AdoptStrategy(node int, name string) ScenarioStep { return scenario.AdoptStrategy(node, name) }

// Call wraps an arbitrary action — mine a block, assert mid-run state,
// print a phase report — as a named step.
func Call(name string, fn func(rt ScenarioRuntime) error) ScenarioStep {
	return scenario.Call(name, fn)
}
