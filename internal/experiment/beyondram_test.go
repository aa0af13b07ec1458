package experiment

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestBeyondRAMRunBounded is the storage engine's acceptance soak, the
// beyond-RAM companion of TestStreamingRunBoundedMemory: a long streaming
// run over file-backed stores with chain compaction must hold resident
// memory to the in-flight window — the release slack of the workload plus
// the uncompacted chain tail — while the full chain state accumulates on
// disk. Pre-signing the workload and keeping every block body and undo
// record resident would cost several hundred MB; the bounded run must stay
// under a budget well below that. The ledger itself stays in memory: it holds
// only the unspent outputs.
func TestBeyondRAMRunBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("memory soak")
	}
	dir := t.TempDir()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	cfg := DefaultConfig(BitcoinNG, 4, 6)
	cfg.Offered = 200 // 30m at 200 tx/s: ~360k txs, ~170 MB of chain per node
	cfg.BandwidthBPS = 1e8
	cfg.Params.MicroblockInterval = 2 * time.Second
	cfg.Params.MaxBlockSize = 1_000_000
	cfg.TargetBlocks = 1 << 30
	cfg.MaxSimTime = 30 * time.Minute
	cfg.StoreURL = "file:" + dir
	// Evict bodies and undo records more than ~2 key epochs below the tip;
	// nothing in this fault-free run can reorg anywhere near that deep.
	cfg.CompactDepth = 64
	// Maintenance boundaries pace compaction and store syncs; once a
	// sim-minute keeps the uncompacted tail to ~30 blocks.
	cfg.InvariantInterval = time.Minute

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Load.Admitted < 300_000 {
		t.Fatalf("admitted only %d txs; soak did not reach streaming scale", res.Load.Admitted)
	}
	if res.Load.Confirmed == 0 {
		t.Fatal("soak confirmed nothing")
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	const budget = 200 << 20
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grew > budget {
		t.Fatalf("heap grew %d MB over the soak; beyond-RAM mode is not bounded", grew>>20)
	}

	// The chain state the run produced must actually live on disk — the
	// chain indexes, each block with its arrival time — and exceed the
	// resident growth, or "beyond RAM" means nothing. The ledger is rebuilt
	// from the index on every boot, so no run writes a table, a journal or a
	// checkpoint for it.
	var onDisk int64
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		if ext := filepath.Ext(path); ext == ".tab" || ext == ".journal" || ext == ".ckpt" {
			t.Errorf("run left %s: the ledger writes nothing to disk", path)
		}
		onDisk += info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if onDisk < 100<<20 {
		t.Fatalf("only %d MB of chain state on disk; run never left RAM scale", onDisk>>20)
	}
	if grew > 0 && onDisk < grew {
		t.Errorf("disk state (%d MB) below resident growth (%d MB); compaction is not shedding state",
			onDisk>>20, grew>>20)
	}

	// The ledger counters must have ridden the quiescent-boundary sampler.
	stats := map[string]float64{}
	for _, s := range res.StoreStats {
		stats[s.Name] = s.Max
	}
	if stats["store-puts"] == 0 {
		t.Error("store backpressure series store-puts never sampled above zero")
	}
}
