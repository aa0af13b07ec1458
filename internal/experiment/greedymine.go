package experiment

import (
	"fmt"
	"io"
	"time"

	"bitcoinng/internal/mining"
	"bitcoinng/internal/strategy"
)

// AttackPoint is one adversarial-sweep measurement: the attacker's revenue
// share at mining power Alpha, once mining honestly (the control) and once
// running the strategy under test. Honest play earns a revenue share that
// tracks α; a Gain above zero at some α means the deviation is profitable —
// the incentive failure the sweep exists to locate.
type AttackPoint struct {
	Alpha  float64
	Honest float64 // attacker revenue share in the honest control run
	Attack float64 // attacker revenue share under the strategy
}

// Gain is the attacker's revenue-share improvement over honest play.
func (p AttackPoint) Gain() float64 { return p.Attack - p.Honest }

// attackConfig is one adversarial execution: Bitcoin-NG in a fee-dominated
// regime (Subsidy 0 — §5.1's incentive analysis concerns fee revenue; a
// dominant subsidy would drown the fee-redistribution signal), the attacker
// at node 0 with mining share α pinned explicitly, and the honest remainder
// following the paper's exponential rank distribution over 1-α.
func attackConfig(scale Scale, alpha float64) Config {
	cfg := DefaultConfig(BitcoinNG, scale.Nodes, scale.Seed)
	cfg.Params.Subsidy = 0
	cfg.Params.MaxBlockSize = 20_000
	cfg.Params.TargetBlockInterval = 12 * time.Second
	cfg.Params.MicroblockInterval = 2 * time.Second
	// Revenue statistics accrue per key block (each epoch settles one fee
	// split), not per microblock, so scale.Blocks is interpreted as the
	// key-block budget and converted to the payload-block stop count the
	// runner uses.
	cfg.TargetBlocks = scale.Blocks *
		int(cfg.Params.TargetBlockInterval/cfg.Params.MicroblockInterval)
	cfg.MaxSimTime = 12 * time.Hour
	cfg.Parallelism = scale.Parallelism

	shares := make([]float64, scale.Nodes)
	shares[0] = alpha
	rest := mining.ExponentialShares(scale.Nodes-1, mining.DefaultExponent)
	for i, s := range rest {
		shares[i+1] = s * (1 - alpha)
	}
	cfg.MiningShares = shares
	return cfg
}

// AttackRevenueSweep measures the attacker-revenue-vs-α curve for a named
// mining strategy: for each α it runs the honest control and the
// attack on identical networks (same seed, topology, workload, and honest
// power distribution) through the shared Sweep pool, and reads the
// attacker's revenue share from an honest node's final ledger.
func AttackRevenueSweep(scale Scale, strat string, alphas []float64) ([]AttackPoint, error) {
	if _, err := strategy.New(strat); err != nil {
		return nil, fmt.Errorf("attack sweep: %w", err)
	}
	if len(alphas) == 0 {
		alphas = []float64{0.10, 0.20, 0.30, 1.0 / 3, 0.40, 0.45}
	}
	// Honest control and attack run per α, flattened into one pool:
	// [honest α0, attack α0, honest α1, ...].
	cfgs := make([]Config, 0, 2*len(alphas))
	for _, a := range alphas {
		honest := attackConfig(scale, a)
		attack := attackConfig(scale, a)
		attack.Strategies = map[int]string{0: strat}
		cfgs = append(cfgs, honest, attack)
	}
	results, err := Sweep(cfgs, scale.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("attack sweep (%s): %w", strat, err)
	}
	points := make([]AttackPoint, len(alphas))
	for i, a := range alphas {
		points[i] = AttackPoint{
			Alpha:  a,
			Honest: results[2*i].RevenueShare(0),
			Attack: results[2*i+1].RevenueShare(0),
		}
	}
	return points, nil
}

// ProfitabilityThreshold returns the smallest swept α whose attack run beat
// the honest control; ok is false when the deviation never paid off in the
// swept range.
func ProfitabilityThreshold(points []AttackPoint) (alpha float64, ok bool) {
	for _, p := range points {
		if p.Gain() > 0 {
			return p.Alpha, true
		}
	}
	return 0, false
}

// FprintAttackSweep writes the attacker-revenue-vs-α table and the located
// profitability threshold. Everything written is a deterministic function of
// the sweep inputs, so runs can be diffed byte for byte across engines.
func FprintAttackSweep(w io.Writer, strat string, points []AttackPoint) {
	fmt.Fprintf(w, "Adversarial sweep — %s attacker revenue share vs mining power α (fee-only regime)\n", strat)
	fmt.Fprintf(w, "%8s %10s %10s %10s %12s\n", "alpha", "honest", strat, "gain", "profitable")
	for _, p := range points {
		fmt.Fprintf(w, "%8.4f %10.4f %10.4f %+10.4f %12v\n",
			p.Alpha, p.Honest, p.Attack, p.Gain(), p.Gain() > 0)
	}
	if alpha, ok := ProfitabilityThreshold(points); ok {
		fmt.Fprintf(w, "empirical profitability threshold: alpha ≈ %.4f (first swept α where %s beats honest)\n",
			alpha, strat)
	} else {
		fmt.Fprintf(w, "no profitable deviation found in the swept α range\n")
	}
}
