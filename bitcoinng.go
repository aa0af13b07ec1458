// Package bitcoinng is a from-scratch Go implementation of Bitcoin-NG
// (Eyal, Gencer, Sirer, van Renesse — NSDI 2016): a blockchain protocol that
// decouples leader election (proof-of-work key blocks) from transaction
// serialization (leader-signed microblocks), together with everything needed
// to reproduce the paper's evaluation — a Bitcoin baseline, a GHOST
// baseline, a 1000-node-capable network emulator, simulated mining, the
// paper's Nakamoto-consensus metrics, and figure-regenerating sweep drivers.
//
// This root package is the public API surface. It offers three entry points:
//
//   - Experiments: Run one measured execution (RunExperiment on a config
//     from NewExperiment) or a whole figure sweep (Figure7, Figure8a,
//     Figure8b) on the discrete-event emulated network, and read back the
//     §6 metrics in a Report.
//
//   - Clusters: New builds an interactive in-process network of protocol
//     nodes on the emulator — drive virtual time, submit transactions from
//     wallets, watch leadership and chains move. The examples/ directory is
//     built on this.
//
//   - Live nodes: the cmd/ngnode binary runs the same protocol code over
//     real TCP with real proof-of-work at configurable difficulty.
//
// Two abstractions compose across all three: one protocol switch (every
// harness assembles its Bitcoin, GHOST or Bitcoin-NG nodes through the same
// build call) and the Scenario API (NewScenario/At — scripted partitions,
// churn, and attacks that run on any harness's event loop).
//
// See DESIGN.md for the architecture and the experiment index.
package bitcoinng

import (
	"time"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/experiment"
	"bitcoinng/internal/metrics"
	"bitcoinng/internal/protocol"
	"bitcoinng/internal/stats"
	"bitcoinng/internal/types"
)

// Protocol selects a consensus protocol implementation by name: Bitcoin,
// BitcoinNG or GHOST.
type Protocol = protocol.Protocol

// The protocols this repository implements.
const (
	// Bitcoin is the baseline Nakamoto blockchain (§3 of the paper).
	Bitcoin = protocol.Bitcoin
	// BitcoinNG is the paper's contribution (§4): key blocks elect
	// leaders, microblocks serialize transactions.
	BitcoinNG = protocol.BitcoinNG
	// GHOST is the heaviest-subtree baseline discussed in §9.
	GHOST = protocol.GHOST
)

// Frequently used value types, re-exported for the public API.
type (
	// Params are consensus parameters (block sizes, intervals, fee split).
	Params = types.Params
	// Amount is a currency quantity in base units.
	Amount = types.Amount
	// Address receives payments.
	Address = crypto.Address
	// Hash identifies blocks and transactions.
	Hash = crypto.Hash
	// Transaction is a ledger entry.
	Transaction = types.Transaction
	// Block is a chain block of any kind (PoW, key, micro).
	Block = types.Block
	// Report carries the §6 metrics for one run.
	Report = metrics.Report
	// Fit is a least-squares line with R² (Figure 6/7 checks).
	Fit = stats.Fit
)

// DefaultParams returns the paper-faithful consensus parameters: 40%/60%
// fee split, 5% poison reward, 100-block coinbase maturity, 100-second key
// blocks, 10-second microblocks.
func DefaultParams() Params { return types.DefaultParams() }

// ExperimentConfig configures one measured run; see the field docs in
// internal/experiment.
type ExperimentConfig = experiment.Config

// ExperimentResult is a run's outputs: the metric report plus simulation
// accounting.
type ExperimentResult = experiment.Result

// DefaultExperiment returns a paper-faithful experiment configuration at the
// given scale.
func DefaultExperiment(p Protocol, nodes int, seed int64) ExperimentConfig {
	return experiment.DefaultConfig(p, nodes, seed)
}

// RunExperiment executes one measured run on the emulated network.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	return experiment.Run(cfg)
}

// Scale sets sweep dimensions (nodes, blocks per run, seed).
type Scale = experiment.Scale

// LaptopScale is the default benchmark scale; PaperScale matches the
// paper's 1000-node, 100-block executions.
func LaptopScale() Scale { return experiment.DefaultScale() }

// PaperScale returns the paper's testbed dimensions.
func PaperScale() Scale { return experiment.PaperScale() }

// Figure sweep drivers; each regenerates one evaluation figure.
type (
	// Fig7Point is a propagation-latency measurement at one block size.
	Fig7Point = experiment.Fig7Point
	// Fig8Point holds both protocols' reports at one sweep coordinate.
	Fig8Point = experiment.Fig8Point
)

// Figure7 regenerates the propagation-vs-block-size experiment.
func Figure7(scale Scale, sizes []int) ([]Fig7Point, Fit, error) {
	return experiment.Figure7(scale, sizes)
}

// Figure8a regenerates the block-frequency sweep (§8.1).
func Figure8a(scale Scale, freqs []float64) ([]Fig8Point, error) {
	return experiment.Figure8a(scale, freqs)
}

// Figure8b regenerates the block-size sweep (§8.2).
func Figure8b(scale Scale, sizes []int) ([]Fig8Point, error) {
	return experiment.Figure8b(scale, sizes)
}

// TieBreakAblation compares random vs first-seen tie-breaking (DESIGN.md §5).
func TieBreakAblation(scale Scale) (random, firstSeen *Report, err error) {
	return experiment.TieBreakAblation(scale)
}

// KeyBlockIntervalAblation sweeps the Bitcoin-NG key-block interval.
func KeyBlockIntervalAblation(scale Scale, intervals []time.Duration) ([]Fig8Point, error) {
	return experiment.KeyBlockIntervalAblation(scale, intervals)
}
