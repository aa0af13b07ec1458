package experiment

import (
	"fmt"
	"time"

	"bitcoinng/internal/metrics"
	"bitcoinng/internal/stats"
)

// PayloadRate is the operational Bitcoin payload throughput the sweeps hold
// constant: 1 MB per 10-minute block ≈ 1667 bytes/second ≈ 3.5 transactions
// of 476 bytes per second (§7).
const PayloadRate = 1_000_000.0 / 600.0

// Scale sets the sweep's execution size. The paper runs 1000 nodes and
// 50–100 blocks per execution; laptop-scale benchmarks default lower and
// keep the same shape.
type Scale struct {
	Nodes  int
	Blocks int
	Seed   int64
	// Parallelism bounds how many sweep points run concurrently (the Sweep
	// worker pool); 0 takes GOMAXPROCS, 1 recovers the sequential driver.
	// Results are identical at any value: every point is an independent,
	// seed-deterministic execution.
	Parallelism int
}

// DefaultScale is the laptop benchmark scale.
func DefaultScale() Scale { return Scale{Nodes: 120, Blocks: 40, Seed: 1} }

// PaperScale matches the paper's testbed. On a 2-core Xeon, Figure 8a at this
// scale (14 runs) takes ~20 s and peaks at 282 MB RSS one point at a time.
func PaperScale() Scale { return Scale{Nodes: 1000, Blocks: 100, Seed: 1} }

// Fig7Point is one Figure 7 measurement: propagation latency percentiles at
// one block size.
type Fig7Point struct {
	BlockSize int
	P25       time.Duration
	P50       time.Duration
	P75       time.Duration
}

// Figure7 reruns the propagation-vs-size experiment: Bitcoin at sizes
// 20–100 kB with the block interval scaled to hold payload throughput
// constant. The paper observes (and Decker & Wattenhofer measured) a linear
// relation; the returned fit quantifies it over the medians.
func Figure7(scale Scale, sizes []int) ([]Fig7Point, stats.Fit, error) {
	if len(sizes) == 0 {
		sizes = []int{20_000, 40_000, 60_000, 80_000, 100_000}
	}
	cfgs := make([]Config, len(sizes))
	for i, size := range sizes {
		cfg := DefaultConfig(Bitcoin, scale.Nodes, scale.Seed)
		cfg.TargetBlocks = scale.Blocks
		cfg.Params.MaxBlockSize = size
		cfg.Params.TargetBlockInterval = time.Duration(float64(size) / PayloadRate * float64(time.Second))
		cfgs[i] = cfg
	}
	results, err := Sweep(cfgs, scale.Parallelism)
	if err != nil {
		return nil, stats.Fit{}, fmt.Errorf("figure7: %w", err)
	}
	points := make([]Fig7Point, len(sizes))
	for i, res := range results {
		points[i] = Fig7Point{
			BlockSize: sizes[i],
			P25:       res.Report.PropagationP25,
			P50:       res.Report.PropagationP50,
			P75:       res.Report.PropagationP75,
		}
	}
	var xs, ys []float64
	for _, p := range points {
		xs = append(xs, float64(p.BlockSize))
		ys = append(ys, p.P50.Seconds())
	}
	return points, stats.LinearFit(xs, ys), nil
}

// Fig8Point is one Figure 8 column: both protocols measured at one x value
// (block frequency for 8a, block size for 8b).
type Fig8Point struct {
	// X is the sweep coordinate: blocks/sec (8a) or bytes (8b).
	X       float64
	Bitcoin *metrics.Report
	NG      *metrics.Report
}

// Figure8a reruns the frequency sweep (§8.1): payload throughput pinned at
// the operational rate while the block (Bitcoin) or microblock (NG)
// frequency varies; block size compensates. Key blocks stay at one per 100
// seconds, as in the paper.
func Figure8a(scale Scale, freqs []float64) ([]Fig8Point, error) {
	if len(freqs) == 0 {
		freqs = []float64{0.01, 0.02, 0.04, 0.1, 0.2, 0.4, 1.0}
	}
	// Both protocols at every frequency, flattened into one sweep so the
	// pool keeps every core busy: [bitcoin f0, ng f0, bitcoin f1, ...].
	cfgs := make([]Config, 0, 2*len(freqs))
	for _, f := range freqs {
		size := int(PayloadRate / f)
		if size < 600 {
			size = 600 // below one transaction per block nothing serializes
		}
		interval := time.Duration(float64(time.Second) / f)

		bcfg := DefaultConfig(Bitcoin, scale.Nodes, scale.Seed)
		bcfg.TargetBlocks = scale.Blocks
		bcfg.Params.MaxBlockSize = size
		bcfg.Params.TargetBlockInterval = interval

		ncfg := DefaultConfig(BitcoinNG, scale.Nodes, scale.Seed)
		ncfg.TargetBlocks = scale.Blocks
		ncfg.Params.MaxBlockSize = size
		ncfg.Params.TargetBlockInterval = 100 * time.Second
		ncfg.Params.MicroblockInterval = interval
		cfgs = append(cfgs, bcfg, ncfg)
	}
	results, err := Sweep(cfgs, scale.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("figure8a: %w", err)
	}
	points := make([]Fig8Point, len(freqs))
	for i, f := range freqs {
		points[i] = Fig8Point{X: f, Bitcoin: results[2*i].Report, NG: results[2*i+1].Report}
	}
	return points, nil
}

// Figure8b reruns the size sweep (§8.2) at high frequency: Bitcoin blocks
// every 10 s; NG microblocks every 10 s with key blocks every 100 s.
func Figure8b(scale Scale, sizes []int) ([]Fig8Point, error) {
	if len(sizes) == 0 {
		sizes = []int{1280, 2500, 5000, 10_000, 20_000, 40_000, 80_000}
	}
	cfgs := make([]Config, 0, 2*len(sizes))
	for _, size := range sizes {
		bcfg := DefaultConfig(Bitcoin, scale.Nodes, scale.Seed)
		bcfg.TargetBlocks = scale.Blocks
		bcfg.Params.MaxBlockSize = size
		bcfg.Params.TargetBlockInterval = 10 * time.Second

		ncfg := DefaultConfig(BitcoinNG, scale.Nodes, scale.Seed)
		ncfg.TargetBlocks = scale.Blocks
		ncfg.Params.MaxBlockSize = size
		ncfg.Params.TargetBlockInterval = 100 * time.Second
		ncfg.Params.MicroblockInterval = 10 * time.Second
		cfgs = append(cfgs, bcfg, ncfg)
	}
	results, err := Sweep(cfgs, scale.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("figure8b: %w", err)
	}
	points := make([]Fig8Point, len(sizes))
	for i, size := range sizes {
		points[i] = Fig8Point{X: float64(size), Bitcoin: results[2*i].Report, NG: results[2*i+1].Report}
	}
	return points, nil
}

// TieBreakAblation compares random vs first-seen fork-choice tie-breaking
// for Bitcoin at high frequency (DESIGN.md §5); the paper's footnote 2
// recommends random tie-breaking after [21].
func TieBreakAblation(scale Scale) (random, firstSeen *metrics.Report, err error) {
	mk := func(rand bool) Config {
		cfg := DefaultConfig(Bitcoin, scale.Nodes, scale.Seed)
		cfg.TargetBlocks = scale.Blocks
		cfg.Params.MaxBlockSize = 20_000
		cfg.Params.TargetBlockInterval = 10 * time.Second
		cfg.Params.RandomTieBreak = rand
		return cfg
	}
	results, err := Sweep([]Config{mk(true), mk(false)}, scale.Parallelism)
	if err != nil {
		return nil, nil, fmt.Errorf("tiebreak ablation: %w", err)
	}
	return results[0].Report, results[1].Report, nil
}

// KeyBlockIntervalAblation sweeps NG's key-block interval (DESIGN.md §5):
// §5.2 argues key-block frequency trades censorship resistance against
// key-block fork rate while microblocks keep serializing regardless.
func KeyBlockIntervalAblation(scale Scale, intervals []time.Duration) ([]Fig8Point, error) {
	if len(intervals) == 0 {
		intervals = []time.Duration{25 * time.Second, 50 * time.Second, 100 * time.Second, 200 * time.Second}
	}
	cfgs := make([]Config, len(intervals))
	for i, ki := range intervals {
		cfg := DefaultConfig(BitcoinNG, scale.Nodes, scale.Seed)
		cfg.TargetBlocks = scale.Blocks
		cfg.Params.MaxBlockSize = 20_000
		cfg.Params.TargetBlockInterval = ki
		cfg.Params.MicroblockInterval = 10 * time.Second
		cfgs[i] = cfg
	}
	results, err := Sweep(cfgs, scale.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("keyblock ablation: %w", err)
	}
	points := make([]Fig8Point, len(intervals))
	for i, ki := range intervals {
		points[i] = Fig8Point{X: ki.Seconds(), NG: results[i].Report}
	}
	return points, nil
}
