// Command ngsim runs one measured blockchain experiment on the emulated
// network and prints the paper's §6 metrics.
//
// Examples:
//
//	ngsim -protocol bitcoin-ng -nodes 1000 -blocks 100 -micro-interval 10s
//	ngsim -protocol bitcoin -nodes 200 -interval 10s -size 20000 -seed 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bitcoinng/internal/experiment"
	"bitcoinng/internal/load"
	protoreg "bitcoinng/internal/protocol"
)

func main() {
	var (
		protocol = flag.String("protocol", "bitcoin-ng",
			"protocol: "+strings.Join(protoreg.Names(), " | "))
		nodes     = flag.Int("nodes", 200, "network size (paper: 1000)")
		seed      = flag.Int64("seed", 1, "experiment seed (reproducible)")
		blocks    = flag.Int("blocks", 60, "payload blocks to run (paper: 50-100)")
		interval  = flag.Duration("interval", 100*time.Second, "PoW/key block interval")
		micro     = flag.Duration("micro-interval", 10*time.Second, "NG microblock interval")
		size      = flag.Int("size", 100_000, "block / microblock size cap in bytes")
		txSize    = flag.Int("tx-size", load.DefaultTxSize, "artificial transaction size in bytes")
		bandwidth = flag.Float64("bandwidth", 100_000, "per-pair bandwidth in bits/sec")
	)
	flag.Parse()

	cfg := experiment.DefaultConfig(experiment.Protocol(*protocol), *nodes, *seed)
	cfg.TargetBlocks = *blocks
	cfg.TxSize = *txSize
	cfg.BandwidthBPS = *bandwidth
	cfg.Params.TargetBlockInterval = *interval
	cfg.Params.MicroblockInterval = *micro
	cfg.Params.MaxBlockSize = *size

	res, err := experiment.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ngsim: %v\n", err)
		os.Exit(1)
	}
	r := res.Report
	fmt.Printf("protocol=%s nodes=%d seed=%d blocks(payload)=%d\n",
		cfg.Protocol, cfg.Nodes, cfg.Seed, cfg.TargetBlocks)
	fmt.Printf("generated: %d blocks (%d pow), main chain: %d (%d pow)\n",
		r.Blocks, r.PowBlocks, r.MainChainBlocks, r.MainPowBlocks)
	experiment.FprintReport(os.Stdout, string(cfg.Protocol), r)
	fmt.Printf("propagation p25/p50/p75: %.2fs / %.2fs / %.2fs\n",
		r.PropagationP25.Seconds(), r.PropagationP50.Seconds(), r.PropagationP75.Seconds())
	experiment.FprintRunStats(os.Stdout, res)
}
