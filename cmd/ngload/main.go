// Command ngload is the sustained-load driver (txblaster): it streams
// signed transactions against an emulated network at a target rate (open
// loop) or outstanding window (closed loop) and reports offered vs
// confirmed throughput with confirmation-latency percentiles.
//
// Two harnesses:
//
//	ngload -rate 40 -duration 15m              # live cluster: blaster + relay
//	ngload -sim -rate 40 -duration 15m         # experiment harness: paced views
//
// The live path exercises real mempools (bounded, fee-indexed) and gossip
// transaction relay (batched per -batch); the -sim path exercises the
// streaming workload views of the measurement harness. Stdout is a
// deterministic function of the flags and seed on both paths; timing goes
// to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bitcoinng"
	"bitcoinng/internal/experiment"
	"bitcoinng/internal/load"
	"bitcoinng/internal/mempool"
	"bitcoinng/internal/metrics"
)

func main() {
	var (
		simMode  = flag.Bool("sim", false, "drive the experiment harness (paced workload views) instead of the live cluster")
		proto    = flag.String("protocol", "bitcoin-ng", "protocol under load: bitcoin | bitcoin-ng | ghost")
		nodes    = flag.Int("nodes", 20, "network size")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		rate     = flag.Float64("rate", 0, "open-loop offered rate in tx/s of virtual time (0 = closed loop)")
		window   = flag.Int64("window", 0, "closed-loop outstanding-transaction target (default 1024)")
		duration = flag.Duration("duration", 15*time.Minute, "virtual duration of the blast")
		grace    = flag.Duration("grace", 30*time.Second, "post-blast settling time")
		txSize   = flag.Int("txsize", load.DefaultTxSize, "stream transaction size in bytes")
		lanes    = flag.Int("lanes", 0, "stream lane count (0 = default)")
		bw       = flag.Float64("bandwidth", 1_000_000, "per-pair bandwidth in bits/s (0 = paper's 100 kbit/s)")
		batch    = flag.Duration("batch", 200*time.Millisecond, "gossip tx-relay batching interval (live path; 0 = relay each tx immediately)")
		poolTxs  = flag.Int("mempool-txs", 100_000, "per-node mempool transaction bound (live path; 0 = unbounded)")
		parallel = flag.Int("parallelism", 1, "sim path: event-loop shards (reports are byte-identical at any value)")
	)
	flag.Parse()

	start := time.Now() //nglint:allow walltime stderr-only timing; stdout stays a pure function of flags+seed
	var err error
	if *simMode {
		err = runSim(*proto, *nodes, *seed, *rate, *window, *duration, *grace, *txSize, *lanes, *bw, *parallel)
	} else {
		err = runLive(*proto, *nodes, *seed, *rate, *window, *duration, *grace, *txSize, *lanes, *bw, *batch, *poolTxs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ngload: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "(done in %v)\n", time.Since(start).Round(time.Millisecond)) //nglint:allow walltime stderr-only timing; stdout stays a pure function of flags+seed
}

// runLive blasts a cluster: real mempools, wallet-path submission, gossip
// relay with batching.
func runLive(proto string, nodes int, seed int64, rate float64, window int64,
	duration, grace time.Duration, txSize, lanes int, bw float64,
	batch time.Duration, poolTxs int) error {
	params := bitcoinng.DefaultParams()
	params.RetargetWindow = 0
	params.TxBatchInterval = batch
	c, err := bitcoinng.NewCluster(bitcoinng.ClusterConfig{
		Protocol:      bitcoinng.Protocol(proto),
		Nodes:         nodes,
		Seed:          seed,
		Params:        params,
		AutoMine:      true,
		RelayTxs:      true,
		StreamLoad:    &bitcoinng.StreamLoadConfig{TxSize: txSize, Lanes: lanes},
		MempoolLimits: mempool.Limits{MaxTxs: poolTxs},
		BandwidthBPS:  bw,
	})
	if err != nil {
		return err
	}
	report, err := c.Blast(bitcoinng.BlastConfig{
		Rate:     rate,
		Window:   window,
		Duration: duration,
		Grace:    grace,
	})
	if err != nil {
		return err
	}
	fmt.Printf("ngload live: %s, %d nodes, seed %d\n", proto, nodes, seed)
	report.Fprint(os.Stdout)
	rep := c.Report()
	fmt.Printf("chain: %d blocks (%d main), ledger %.2f tx/s\n",
		rep.Blocks, rep.MainChainBlocks, rep.TxFrequency)
	return nil
}

// runSim blasts the measurement harness: paced workload views over the
// streaming generator, byte-identical at any parallelism.
func runSim(proto string, nodes int, seed int64, rate float64, window int64,
	duration, grace time.Duration, txSize, lanes int, bw float64, parallel int) error {
	cfg := experiment.DefaultConfig(experiment.Protocol(proto), nodes, seed)
	cfg.TxSize = txSize
	cfg.StreamLanes = lanes
	cfg.Offered = rate
	if rate <= 0 {
		if window <= 0 {
			window = 1024
		}
		cfg.ClosedLoopWindow = int(window)
	}
	cfg.BandwidthBPS = bw
	cfg.TargetBlocks = 1 << 30 // time-bound run: MaxSimTime is the stop rule
	cfg.MaxSimTime = duration
	cfg.Grace = grace
	cfg.Parallelism = parallel
	res, err := experiment.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("ngload sim: %s, %d nodes, seed %d\n", proto, nodes, seed)
	if res.Load == nil {
		return fmt.Errorf("no load report (pacing not active)")
	}
	res.Load.Fprint(os.Stdout)
	metrics.FprintBackpressure(os.Stdout, res.Backpressure)
	fmt.Printf("chain: %d blocks (%d main), ledger %.2f tx/s\n",
		res.Report.Blocks, res.Report.MainChainBlocks, res.Report.TxFrequency)
	return nil
}
