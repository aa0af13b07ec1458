package bitcoinng

// Benchmark harness: one benchmark per evaluation figure/table of the paper
// (see DESIGN.md §3 for the experiment index), plus micro-benchmarks of the
// hot substrate paths. Figure benchmarks run laptop-scale sweeps and log the
// same rows/series the paper plots; `cmd/ngbench -nodes 1000 -blocks 100`
// runs the same drivers at paper scale.

import (
	"math"
	"strings"
	"testing"
	"time"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/experiment"
	"bitcoinng/internal/incentive"
	"bitcoinng/internal/load"
	"bitcoinng/internal/mining"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/stats"
	"bitcoinng/internal/store"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
	"bitcoinng/internal/wire"
)

// wireDecode round-trips a value through its serialization.
func wireDecode(in wire.Encoder, out wire.Decoder) error {
	return wire.Decode(wire.Encode(in), out)
}

// benchScale keeps `go test -bench=.` in tens of seconds; the shape of every
// curve survives the scale-down (DESIGN.md §3 notes the paper-scale
// comparison via cmd/ngbench).
func benchScale() Scale { return Scale{Nodes: 100, Blocks: 30, Seed: 1} }

// BenchmarkFigure6MiningPowerDistribution regenerates Figure 6: 52 weeks of
// ranked pool shares sampled from the exponential rank model, reduced to
// per-rank percentiles and re-fitted.
func BenchmarkFigure6MiningPowerDistribution(b *testing.B) {
	var exponent, r2 float64
	for i := 0; i < b.N; i++ {
		rng := sim.NewRand(1, 6)
		weeks := mining.SampleWeeks(rng, 52, 100, mining.DefaultExponent, 0.4)
		pct := mining.RankPercentiles(weeks, 20, []float64{0.25, 0.50, 0.75})
		var ranks, logMedians []float64
		for k := 0; k < 20; k++ {
			ranks = append(ranks, float64(k+1))
			logMedians = append(logMedians, math.Log(pct[1][k]))
		}
		fit := stats.LinearFit(ranks, logMedians)
		exponent, r2 = fit.Slope, fit.R2
	}
	b.ReportMetric(exponent, "exponent")
	b.ReportMetric(r2, "R2")
	b.Logf("Figure 6: fitted exponent %.4f (paper −0.27), R² %.4f (paper 0.99)", exponent, r2)
}

// BenchmarkFigure7PropagationVsSize regenerates Figure 7: Bitcoin block
// propagation percentiles across block sizes, with the linearity fit.
func BenchmarkFigure7PropagationVsSize(b *testing.B) {
	var out strings.Builder
	for i := 0; i < b.N; i++ {
		out.Reset()
		points, fit, err := experiment.Figure7(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		experiment.FprintFig7(&out, points, fit)
		b.ReportMetric(fit.R2, "R2")
	}
	b.Log("\n" + out.String())
}

// BenchmarkFigure8aFrequencySweep regenerates Figure 8a: both protocols
// across block/microblock frequencies at constant payload throughput.
func BenchmarkFigure8aFrequencySweep(b *testing.B) {
	var out strings.Builder
	for i := 0; i < b.N; i++ {
		out.Reset()
		points, err := experiment.Figure8a(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		experiment.FprintFig8(&out, "Figure 8a — frequency sweep", "freq[1/s]", points)
		last := points[len(points)-1]
		b.ReportMetric(last.Bitcoin.MiningPowerUtilization, "btc-mpu@1Hz")
		b.ReportMetric(last.NG.MiningPowerUtilization, "ng-mpu@1Hz")
	}
	b.Log("\n" + out.String())
}

// BenchmarkFigure8bSizeSweep regenerates Figure 8b: both protocols across
// block sizes at high frequency.
func BenchmarkFigure8bSizeSweep(b *testing.B) {
	var out strings.Builder
	for i := 0; i < b.N; i++ {
		out.Reset()
		points, err := experiment.Figure8b(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		experiment.FprintFig8(&out, "Figure 8b — size sweep", "size[B]", points)
		last := points[len(points)-1]
		b.ReportMetric(last.Bitcoin.Fairness, "btc-fairness@80k")
		b.ReportMetric(last.NG.Fairness, "ng-fairness@80k")
	}
	b.Log("\n" + out.String())
}

// BenchmarkIncentiveBounds regenerates the §5.1 analysis: closed-form
// r_leader windows over an α grid plus a Monte-Carlo check at the paper's
// operating point.
func BenchmarkIncentiveBounds(b *testing.B) {
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		rows := incentive.Table([]float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 1.0 / 3.0})
		lo, hi = rows[4].Lower, rows[4].Upper
		rng := sim.NewRand(1, uint64(i))
		ev := incentive.InclusionAttackEV(rng, incentive.DefaultAlpha, 0.40, 200_000)
		if ev >= 0.40 {
			b.Fatalf("inclusion attack profitable at r=40%%: EV %.4f", ev)
		}
	}
	b.Logf("§5.1 at α=1/4: %.4f < r_leader < %.4f (paper: 0.37 < r < 0.43); 40%% compatible", lo, hi)
}

// BenchmarkAblationTieBreak compares the fork-choice tie rules (DESIGN.md §5).
func BenchmarkAblationTieBreak(b *testing.B) {
	var out strings.Builder
	for i := 0; i < b.N; i++ {
		out.Reset()
		random, firstSeen, err := experiment.TieBreakAblation(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		experiment.FprintReport(&out, "random", random)
		experiment.FprintReport(&out, "first-seen", firstSeen)
	}
	b.Log("\n" + out.String())
}

// BenchmarkAblationKeyBlockInterval sweeps NG's key-block interval
// (DESIGN.md §5, §5.2 of the paper).
func BenchmarkAblationKeyBlockInterval(b *testing.B) {
	var out strings.Builder
	for i := 0; i < b.N; i++ {
		out.Reset()
		points, err := experiment.KeyBlockIntervalAblation(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		experiment.FprintFig8(&out, "Key block interval ablation", "keyint[s]", points)
	}
	b.Log("\n" + out.String())
}

// --- substrate micro-benchmarks ---

func benchKey(b *testing.B) *crypto.PrivateKey {
	b.Helper()
	key, err := crypto.GenerateKey(sim.NewRand(1, 1))
	if err != nil {
		b.Fatal(err)
	}
	return key
}

// BenchmarkTxEncodeDecode measures the wire codec on a workload-sized
// transaction.
func BenchmarkTxEncodeDecode(b *testing.B) {
	w, err := experiment.NewWorkload(1, 1, 476)
	if err != nil {
		b.Fatal(err)
	}
	tx := w.Txs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out types.Transaction
		if err := decodeTx(tx, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func decodeTx(in *types.Transaction, out *types.Transaction) error {
	return wireDecode(in, out)
}

// BenchmarkMerkleRoot computes the root of a 2000-transaction block.
func BenchmarkMerkleRoot(b *testing.B) {
	leaves := make([]crypto.Hash, 2000)
	for i := range leaves {
		leaves[i] = crypto.HashBytes([]byte{byte(i), byte(i >> 8)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crypto.MerkleRoot(leaves)
	}
}

// BenchmarkMicroblockVerify measures uncached microblock validation: the
// cost the paper estimated at "several milliseconds per microblock" and
// omitted from its prototype; this repository implements and measures it.
func BenchmarkMicroblockVerify(b *testing.B) {
	key := benchKey(b)
	w, err := experiment.NewWorkload(1, 40, 476)
	if err != nil {
		b.Fatal(err)
	}
	mb := &types.MicroBlock{
		Header: types.MicroBlockHeader{
			Prev:      crypto.HashBytes([]byte("k")),
			TxRoot:    crypto.MerkleRoot(types.TxIDs(w.Txs)),
			TimeNanos: 1,
		},
		Txs: w.Txs,
	}
	mb.Header.Sign(key)
	pub := key.Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Round-trip through the wire to defeat the validation cache,
		// measuring the real per-node cost.
		var fresh types.MicroBlock
		if err := wireDecode(mb, &fresh); err != nil {
			b.Fatal(err)
		}
		if err := fresh.CheckWellFormed(pub); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimnetBlockFlood measures the discrete-event network flooding one
// 20 kB block announcement through 200 nodes (inv/getdata/block).
func BenchmarkSimnetBlockFlood(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultExperiment(Bitcoin, 200, int64(i+1))
		cfg.TargetBlocks = 1
		cfg.Params.MaxBlockSize = 20_000
		cfg.Params.TargetBlockInterval = 10 * time.Second
		b.StartTimer()
		if _, err := RunExperiment(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterNGMinute advances a 50-node Bitcoin-NG cluster by one
// virtual minute (microblocks every 2 s).
func BenchmarkClusterNGMinute(b *testing.B) {
	params := DefaultParams()
	params.RetargetWindow = 0
	params.TargetBlockInterval = 20 * time.Second
	params.MicroblockInterval = 2 * time.Second
	c, err := New(50,
		WithParams(params),
		WithFunding(1000),
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(time.Minute)
	}
}

// BenchmarkLatencySample measures the latency histogram sampler.
func BenchmarkLatencySample(b *testing.B) {
	h := simnet.DefaultLatency()
	rng := sim.NewRand(1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Sample(rng)
	}
}

// BenchmarkStreamSign measures the streaming workload generator: building
// and signing one lane-stride batch (64 transactions) on the shared
// validate pool, the per-batch cost the paced harness pays inside a run.
func BenchmarkStreamSign(b *testing.B) {
	s, err := load.NewStream(load.StreamConfig{Seed: 1, Lanes: 64, MaxTxs: int64(b.N+1) * 64})
	if err != nil {
		b.Fatal(err)
	}
	s.Bind(crypto.HashBytes([]byte("bench-funding")), 0)
	b.SetBytes(64 * 476)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Tx(int64(i)*64) == nil {
			b.Fatal("generation stalled")
		}
	}
}

// BenchmarkThroughputPoint measures one point of the sustained-load curve:
// a 10-node Bitcoin-NG network under 8 tx/s open-loop streaming load for
// ten virtual minutes, reporting measured goodput.
func BenchmarkThroughputPoint(b *testing.B) {
	var conf float64
	for i := 0; i < b.N; i++ {
		cfg := experiment.DefaultConfig(experiment.BitcoinNG, 10, int64(i+1))
		cfg.Offered = 8
		cfg.BandwidthBPS = 1_000_000
		cfg.TargetBlocks = 1 << 30
		cfg.MaxSimTime = 10 * time.Minute
		res, err := experiment.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		conf = res.Load.ConfirmedPerSec()
	}
	b.ReportMetric(conf, "conf/s")
}

// BenchmarkStoreBackendRun replays the same small Bitcoin-NG streaming run
// over each storage backend — the in-memory fast path vs the file-backed
// journal/paged-table engine — so the perf trajectory records what the
// beyond-RAM mode costs end to end (fsyncs, journal appends, page churn).
func BenchmarkStoreBackendRun(b *testing.B) {
	for _, backend := range []struct{ name, url string }{
		{"mem", ""},
		{"file", "file:"},
	} {
		b.Run(backend.name, func(b *testing.B) {
			var confirmed int64
			for i := 0; i < b.N; i++ {
				cfg := experiment.DefaultConfig(experiment.BitcoinNG, 8, 1)
				cfg.Offered = 50
				cfg.Params.MicroblockInterval = 2 * time.Second
				cfg.TargetBlocks = 1 << 30
				cfg.MaxSimTime = 5 * time.Minute
				cfg.StoreURL = backend.url
				res, err := experiment.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				confirmed = res.Load.Admitted
			}
			b.ReportMetric(float64(confirmed), "admitted-txs")
		})
	}
}

// BenchmarkUTXOStoreApply measures the raw ledger-store write path per
// backend: one coinbase block applied per iteration (journal append + paged
// writes on the file side, map stores on the mem side), with a Sync every
// 64 blocks to exercise the checkpoint cycle at a realistic cadence.
func BenchmarkUTXOStoreApply(b *testing.B) {
	run := func(b *testing.B, locator string) {
		factory, err := store.NewFactory(locator)
		if err != nil {
			b.Fatal(err)
		}
		defer factory.Close()
		u, err := factory.NewUTXO("bench")
		if err != nil {
			b.Fatal(err)
		}
		defer u.Close()
		key, err := crypto.GenerateKey(sim.NewRand(1, 99))
		if err != nil {
			b.Fatal(err)
		}
		params := types.DefaultParams()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			outs := make([]types.TxOutput, 8)
			for j := range outs {
				outs[j] = types.TxOutput{Value: types.Amount(1000 + i), To: key.Public().Addr()}
			}
			// The varying output value makes every coinbase ID unique.
			cb := &types.Transaction{Kind: types.TxCoinbase, Outputs: outs}
			ref := utxo.BlockRef{Block: crypto.HashBytes([]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)}), Parent: crypto.ZeroHash}
			ctx := utxo.BlockContext{Height: uint64(i), Params: params, Ref: ref}
			if _, _, err := u.ApplyBlock([]*types.Transaction{cb}, ctx); err != nil {
				b.Fatal(err)
			}
			if i%64 == 63 {
				if err := u.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		st := u.Stats()
		b.ReportMetric(float64(st.JournalRecords)/float64(b.N), "journal-recs/op")
	}
	b.Run("mem", func(b *testing.B) { run(b, "") })
	b.Run("file", func(b *testing.B) { run(b, "file:"+b.TempDir()) })
}
