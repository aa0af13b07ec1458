package experiment

import (
	"testing"
	"time"

	"bitcoinng/internal/types"
)

// finiteWorkload builds a workload of count transactions of txSize bytes
// and materializes them all.
func finiteWorkload(t *testing.T, seed int64, count, txSize int) (*Workload, []*types.Transaction) {
	t.Helper()
	w, err := NewStreamWorkload(seed, txSize, 0, int64(count))
	if err != nil {
		t.Fatal(err)
	}
	txs := make([]*types.Transaction, count)
	for i := range txs {
		txs[i] = w.Stream().Tx(int64(i))
	}
	return w, txs
}

func TestWorkloadConstruction(t *testing.T) {
	w, txs := finiteWorkload(t, 1, 100, 476)
	if w.Stream().Tx(100) != nil {
		t.Fatal("the stream runs past its 100 transactions")
	}
	for i, tx := range txs {
		if tx.WireSize() != 476 {
			t.Fatalf("tx %d size %d, want 476", i, tx.WireSize())
		}
		if err := tx.CheckWellFormed(); err != nil {
			t.Fatalf("tx %d invalid: %v", i, err)
		}
	}
	// Deterministic: same seed, same IDs.
	w2, txs2 := finiteWorkload(t, 1, 100, 476)
	if txs[42].ID() != txs2[42].ID() {
		t.Error("workload not deterministic")
	}
	if w.Genesis.Hash() != w2.Genesis.Hash() {
		t.Error("genesis not deterministic")
	}
}

func TestWorkloadViewPoolSemantics(t *testing.T) {
	w, txs := finiteWorkload(t, 2, 10, 476)
	v := w.NewView()
	if v.Len() != 10 {
		t.Fatalf("len = %d", v.Len())
	}
	// Selection respects the budget and order.
	sel := v.Select(3 * 476)
	if len(sel) != 3 || sel[0] != txs[0] {
		t.Fatalf("select = %d txs", len(sel))
	}
	// Confirm the first two; selection moves on.
	v.RemoveConfirmed(txs[:2])
	if v.Len() != 8 {
		t.Fatalf("len after confirm = %d", v.Len())
	}
	sel = v.Select(476)
	if len(sel) != 1 || sel[0] != txs[2] {
		t.Fatal("selection did not skip confirmed prefix")
	}
	// Double-confirm is idempotent.
	v.RemoveConfirmed(txs[:2])
	if v.Len() != 8 {
		t.Error("double confirm changed length")
	}
	// Reorg reinserts.
	v.Reinsert(txs[:1])
	if v.Len() != 9 {
		t.Fatalf("len after reinsert = %d", v.Len())
	}
	sel = v.Select(476)
	if len(sel) != 1 || sel[0] != txs[0] {
		t.Error("reinserted tx not selectable")
	}
	// Foreign transactions are ignored, additions rejected.
	foreign := &types.Transaction{Kind: types.TxRegular}
	v.RemoveConfirmed([]*types.Transaction{foreign})
	if v.Len() != 9 {
		t.Error("foreign confirm changed view")
	}
	if err := v.Add(foreign); err == nil {
		t.Error("read-only pool accepted Add")
	}
}

func smallScale() Scale { return Scale{Nodes: 30, Blocks: 15, Seed: 7} }

func TestRunBitcoinSmall(t *testing.T) {
	cfg := DefaultConfig(Bitcoin, 30, 7)
	cfg.TargetBlocks = 15
	cfg.Params.MaxBlockSize = 20_000
	cfg.Params.TargetBlockInterval = 60 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.PowBlocks < 15 {
		t.Errorf("generated %d pow blocks, want >= 15", r.PowBlocks)
	}
	if r.MiningPowerUtilization < 0.85 {
		t.Errorf("MPU = %.3f at 60s intervals, want near 1", r.MiningPowerUtilization)
	}
	if r.TxFrequency <= 0 {
		t.Error("no transactions serialized")
	}
	if r.ConsensusDelay <= 0 {
		t.Error("consensus delay not measured")
	}
	if res.Events == 0 || res.SimTime == 0 {
		t.Error("run accounting empty")
	}
}

func TestRunBitcoinNGSmall(t *testing.T) {
	cfg := DefaultConfig(BitcoinNG, 30, 7)
	cfg.TargetBlocks = 20
	cfg.Params.MaxBlockSize = 20_000
	cfg.Params.TargetBlockInterval = 60 * time.Second
	cfg.Params.MicroblockInterval = 5 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Blocks <= r.PowBlocks {
		t.Error("no microblocks generated")
	}
	// Microblock forks don't count against MPU (§8 "Metrics").
	if r.MiningPowerUtilization < 0.8 {
		t.Errorf("NG MPU = %.3f", r.MiningPowerUtilization)
	}
	if r.TxFrequency <= 0 {
		t.Error("no transactions serialized")
	}
}

func TestRunGHOSTSmall(t *testing.T) {
	cfg := DefaultConfig(GHOST, 20, 7)
	cfg.TargetBlocks = 10
	cfg.Params.MaxBlockSize = 10_000
	cfg.Params.TargetBlockInterval = 30 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.PowBlocks < 10 {
		t.Errorf("generated %d blocks", res.Report.PowBlocks)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	mk := func() *Result {
		cfg := DefaultConfig(Bitcoin, 20, 3)
		cfg.TargetBlocks = 8
		cfg.Params.MaxBlockSize = 10_000
		cfg.Params.TargetBlockInterval = 30 * time.Second
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Events != b.Events {
		t.Errorf("event counts differ: %d vs %d", a.Events, b.Events)
	}
	if a.Report.Blocks != b.Report.Blocks ||
		a.Report.ConsensusDelay != b.Report.ConsensusDelay ||
		a.Report.Fairness != b.Report.Fairness {
		t.Errorf("reports differ for identical seeds:\n%+v\n%+v", a.Report, b.Report)
	}
}

// TestHighFrequencyDegradesBitcoinNotNG is the paper's headline claim (§8.1)
// at test scale: pushing Bitcoin's block interval down wrecks its mining
// power utilization while Bitcoin-NG, whose contention is confined to key
// blocks, stays near optimal.
func TestHighFrequencyDegradesBitcoinNotNG(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison")
	}
	btc := DefaultConfig(Bitcoin, 40, 11)
	btc.TargetBlocks = 40
	btc.Params.MaxBlockSize = 5_000
	btc.Params.TargetBlockInterval = 2 * time.Second // far below propagation
	bres, err := Run(btc)
	if err != nil {
		t.Fatal(err)
	}

	ng := DefaultConfig(BitcoinNG, 40, 11)
	ng.TargetBlocks = 40
	ng.Params.MaxBlockSize = 5_000
	ng.Params.TargetBlockInterval = 100 * time.Second
	ng.Params.MicroblockInterval = 2 * time.Second
	nres, err := Run(ng)
	if err != nil {
		t.Fatal(err)
	}

	if bres.Report.MiningPowerUtilization > 0.9 {
		t.Errorf("bitcoin MPU = %.3f at 2s blocks; expected heavy fork loss",
			bres.Report.MiningPowerUtilization)
	}
	if nres.Report.MiningPowerUtilization < 0.9 {
		t.Errorf("NG MPU = %.3f; microblock frequency must not cost mining power",
			nres.Report.MiningPowerUtilization)
	}
	if nres.Report.MiningPowerUtilization <= bres.Report.MiningPowerUtilization {
		t.Errorf("NG MPU (%.3f) should beat Bitcoin's (%.3f) at high frequency",
			nres.Report.MiningPowerUtilization, bres.Report.MiningPowerUtilization)
	}
}

// BenchmarkSimnetBlockFlood measures the discrete-event network flooding one
// 20 kB Bitcoin block through 200 nodes (inv/getdata/block), setup excluded.
func BenchmarkSimnetBlockFlood(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultConfig(Bitcoin, 200, int64(i+1))
		cfg.TargetBlocks = 1
		cfg.Params.MaxBlockSize = 20_000
		cfg.Params.TargetBlockInterval = 10 * time.Second
		b.StartTimer()
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
