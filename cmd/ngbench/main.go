// Command ngbench regenerates the paper's evaluation figures: Figure 6
// (mining-power distribution), Figure 7 (propagation vs block size), Figure
// 8a (frequency sweep), Figure 8b (size sweep), the §5.1 incentive table,
// and the DESIGN.md ablations.
//
// Examples:
//
//	ngbench -figure 8a                      # laptop scale
//	ngbench -figure 8b -nodes 1000 -blocks 100   # paper scale (slow)
//	ngbench -figure all
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bitcoinng/internal/chaos"
	"bitcoinng/internal/experiment"
	"bitcoinng/internal/incentive"
	"bitcoinng/internal/mining"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/stats"
	"bitcoinng/internal/validate"
)

func main() {
	var (
		figure      = flag.String("figure", "all", "which figure: 6 | 7 | 8a | 8b | incentive | ablation | all, or a standalone run not part of all: smoke (scalability) | throughput (sustained-load saturation sweep) | greedymine | selfish (adversarial revenue sweeps) | chaos (randomized scenario soak)")
		nodes       = flag.Int("nodes", 0, "override network size (default: laptop scale 120)")
		blocks      = flag.Int("blocks", 0, "override payload blocks per run (default 40)")
		seed        = flag.Int64("seed", 1, "experiment seed")
		parallelism = flag.Int("parallelism", 0, "sweep worker pool width and smoke shard count (0 = GOMAXPROCS, 1 = sequential)")
		seeds       = flag.Int("seeds", 50, "chaos soak: number of generated scenarios")
		rates       = flag.String("rates", "", "throughput: comma-separated offered rates in tx/s (default 1,2,4,...,256)")
		duration    = flag.Duration("duration", 0, "throughput: virtual duration per sweep point (default 15m)")
		chaosDiff   = flag.Bool("chaos-diff", true, "chaos soak: replay every seed on the sharded engine and with the connect cache off, failing any report divergence")
	)
	flag.Parse()

	scale := experiment.DefaultScale()
	scale.Seed = *seed
	scale.Parallelism = *parallelism
	if *nodes > 0 {
		scale.Nodes = *nodes
	}
	if *blocks > 0 {
		scale.Blocks = *blocks
	}

	run := func(name string, fn func() error) {
		if *figure != "all" && *figure != name {
			return
		}
		start := time.Now() //nglint:allow walltime stderr-only progress timing; stdout stays a pure function of flags+seed
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "ngbench %s: %v\n", name, err)
			os.Exit(1)
		}
		// Timing goes to stderr: stdout stays a deterministic function of
		// the flags and seed, so CI can diff runs byte for byte.
		fmt.Println()
		fmt.Fprintf(os.Stderr, "(%s done in %v)\n", name, time.Since(start).Round(time.Millisecond)) //nglint:allow walltime stderr-only progress timing; stdout stays a pure function of flags+seed
	}

	run("6", func() error { return figure6(*seed) })
	run("7", func() error {
		points, fit, err := experiment.Figure7(scale, nil)
		if err != nil {
			return err
		}
		experiment.FprintFig7(os.Stdout, points, fit)
		return nil
	})
	run("8a", func() error {
		points, err := experiment.Figure8a(scale, nil)
		if err != nil {
			return err
		}
		experiment.FprintFig8(os.Stdout,
			"Figure 8a — frequency sweep at constant payload throughput", "freq[1/s]", points)
		return nil
	})
	run("8b", func() error {
		points, err := experiment.Figure8b(scale, nil)
		if err != nil {
			return err
		}
		experiment.FprintFig8(os.Stdout,
			"Figure 8b — size sweep at high frequency", "size[B]", points)
		return nil
	})
	run("incentive", func() error { return incentiveTable() })
	run("ablation", func() error { return ablations(scale) })
	if *figure == "smoke" {
		run("smoke", func() error { return smoke(scale) })
	}
	// Sustained-load saturation sweep (internal/load + streaming workload):
	// both protocols blasted open-loop at rising offered rates; reports the
	// confirmed-throughput curve with latency percentiles, the saturation
	// knee, and the ceiling. Standalone like smoke: stdout is a
	// deterministic function of (nodes, seed, rates, duration) — CI diffs a
	// sequential against a sharded run byte for byte.
	if *figure == "throughput" {
		run("throughput", func() error { return throughputFigure(scale, *rates, *duration) })
	}
	// Adversarial revenue sweeps (internal/strategy): attacker revenue vs
	// mining power α, honest control vs deviation, with the empirical
	// profitability threshold. Standalone like smoke: each sweep runs 2
	// executions per α on the Sweep pool. Stdout is a deterministic
	// function of (nodes, blocks, seed) — the sharded engine
	// (-parallelism > 1) must produce byte-identical tables.
	if *figure == "greedymine" {
		run("greedymine", func() error { return attackSweep(scale, "greedymine") })
	}
	if *figure == "selfish" {
		run("selfish", func() error { return attackSweep(scale, "selfish") })
	}
	// Chaos soak (internal/chaos): N generated adversarial scenarios under
	// the online invariant catalogue, each optionally replayed across both
	// sim engines and cache modes. Standalone like smoke; stdout is a
	// deterministic function of (seeds, seed, chaos-diff) alone, so CI can
	// diff campaigns byte for byte. A non-zero exit means a seed failed —
	// commit it under internal/chaos/testdata/seeds before fixing.
	if *figure == "chaos" {
		run("chaos", func() error { return chaosSoak(*seeds, *seed, *chaosDiff, *parallelism) })
	}
}

// throughputFigure runs the sustained-load sweep and prints the saturation
// curve.
func throughputFigure(scale experiment.Scale, rateList string, duration time.Duration) error {
	var rates []float64
	if rateList != "" {
		for _, s := range strings.Split(rateList, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad -rates entry %q: %w", s, err)
			}
			rates = append(rates, r)
		}
	}
	curve, err := experiment.ThroughputSweep(scale, rates, duration)
	if err != nil {
		return err
	}
	fmt.Println("Throughput — sustained open-loop load, bitcoin vs bitcoin-ng")
	curve.Fprint(os.Stdout)
	return nil
}

// chaosSoak runs the randomized-scenario campaign and fails on any
// invariant violation, scenario error, or cross-engine divergence.
func chaosSoak(seeds int, baseSeed int64, differential bool, parallelism int) error {
	report := chaos.Soak(chaos.SoakConfig{
		Seeds:        seeds,
		BaseSeed:     baseSeed,
		Parallelism:  parallelism,
		Differential: differential,
	})
	report.Fprint(os.Stdout)
	if fails := report.Failures(); len(fails) > 0 {
		return fmt.Errorf("%d of %d seeds failed", len(fails), seeds)
	}
	return nil
}

// attackSweep reproduces the attacker-revenue-vs-α curve for one registered
// deviation strategy (Greedy-Mine per Hu et al. 2023; selfish mining per
// Eyal & Sirer) and locates the swept profitability threshold.
func attackSweep(scale experiment.Scale, strat string) error {
	points, err := experiment.AttackRevenueSweep(scale, strat, nil)
	if err != nil {
		return err
	}
	experiment.FprintAttackSweep(os.Stdout, strat, points)
	return nil
}

// smoke runs a single Bitcoin-NG experiment at the requested scale and
// prints the report plus validation-pipeline counters. CI runs it at paper
// scale (`-figure smoke -nodes 1000 -blocks 5`) under a time budget to catch
// scalability regressions before they land, and diffs the stdout of a
// sequential (-parallelism 1) against a sharded run: everything written to
// stdout here is a deterministic function of (nodes, blocks, seed) alone.
// Wall time, event counts, and cache counters — which legitimately vary with
// the engine — go to stderr.
func smoke(scale experiment.Scale) error {
	cfg := experiment.DefaultConfig(experiment.BitcoinNG, scale.Nodes, scale.Seed)
	cfg.TargetBlocks = scale.Blocks
	cfg.Parallelism = scale.Parallelism
	res, err := experiment.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("smoke: %d nodes, %d payload blocks, seed %d\n", scale.Nodes, scale.Blocks, scale.Seed)
	experiment.FprintReport(os.Stdout, "bitcoin-ng", res.Report)
	fmt.Printf("simulated %v (%d messages, %.1f MB sent)\n",
		res.SimTime.Round(time.Second), res.NetStats.MessagesSent, float64(res.NetStats.BytesSent)/1e6)
	stats := validate.Shared().Stats()
	fmt.Fprintf(os.Stderr, "connect cache: %d entries, %d hits, %d misses (%.1f%% hit rate)\n",
		stats.Entries, stats.Hits, stats.Misses, 100*stats.HitRate())
	// Report the effective shard count (mirroring the engine's resolution
	// of the 0 = GOMAXPROCS default and the clamp to the node count).
	eff := cfg.Parallelism
	if eff == 0 {
		eff = runtime.GOMAXPROCS(0)
	}
	if eff > cfg.Nodes {
		eff = cfg.Nodes
	}
	fmt.Fprintf(os.Stderr, "wall %v, %d events, parallelism %d\n",
		res.WallTime.Round(time.Millisecond), res.Events, eff)
	return nil
}

// figure6 prints the mining-power distribution by rank with its
// exponential re-fit (§7 "Mining Power").
func figure6(seed int64) error {
	rng := sim.NewRand(seed, 6)
	weeks := mining.SampleWeeks(rng, 52, 100, mining.DefaultExponent, 0.4)
	pct := mining.RankPercentiles(weeks, 20, []float64{0.25, 0.50, 0.75})

	fmt.Println("Figure 6 — weekly mining power by rank (top 20 pools)")
	fmt.Printf("%5s %9s %9s %9s\n", "rank", "p25", "p50", "p75")
	var ranks, logMedians []float64
	for k := 0; k < 20; k++ {
		fmt.Printf("%5d %9.4f %9.4f %9.4f\n", k+1, pct[0][k], pct[1][k], pct[2][k])
		ranks = append(ranks, float64(k+1))
		logMedians = append(logMedians, math.Log(pct[1][k]))
	}
	fit := stats.LinearFit(ranks, logMedians)
	fmt.Printf("exponential fit over medians: exponent=%.4f (paper: -0.27), R²=%.4f (paper: 0.99)\n",
		fit.Slope, fit.R2)
	return nil
}

// incentiveTable prints the §5.1 r_leader bounds.
func incentiveTable() error {
	fmt.Println("§5.1 — incentive-compatible r_leader window by attacker size α")
	fmt.Printf("%8s %10s %10s %8s %10s\n", "alpha", "lower", "upper", "window", "r=40% ok")
	for _, row := range incentive.Table([]float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 1.0 / 3.0}) {
		fmt.Printf("%8.4f %10.4f %10.4f %8v %10v\n",
			row.Alpha, row.Lower, row.Upper, row.WindowOpen, row.R40Valid)
	}
	rng := sim.NewRand(1, 51)
	attack := incentive.InclusionAttackEV(rng, incentive.DefaultAlpha, 0.40, 1_000_000)
	fmt.Printf("monte carlo (α=1/4, r=40%%): inclusion attack EV %.4f < honest %.4f ✓\n",
		attack, incentive.HonestInclusionEV(0.40))

	fmt.Println("\nSelfish-mining thresholds (Eyal & Sirer [21]; microblocks carry no weight, §5.1)")
	fmt.Printf("%8s %12s %28s\n", "gamma", "threshold", "with weighted microblocks")
	for _, g := range []float64{0, 0.25, 0.5, 1} {
		fmt.Printf("%8.2f %12.4f %28.4f\n",
			g, incentive.SelfishThresholdClosedForm(g),
			incentive.WeightedMicroblockAdvantage(g, 0.05, 10))
	}
	return nil
}

// ablations prints the DESIGN.md §5 design-choice comparisons.
func ablations(scale experiment.Scale) error {
	random, firstSeen, err := experiment.TieBreakAblation(scale)
	if err != nil {
		return err
	}
	fmt.Println("Ablation — fork-choice tie-breaking (Bitcoin at 10s blocks)")
	experiment.FprintReport(os.Stdout, "random", random)
	experiment.FprintReport(os.Stdout, "first-seen", firstSeen)

	points, err := experiment.KeyBlockIntervalAblation(scale, nil)
	if err != nil {
		return err
	}
	fmt.Println("\nAblation — Bitcoin-NG key block interval (10s microblocks)")
	experiment.FprintFig8(os.Stdout, "", "keyint[s]", points)
	return nil
}
