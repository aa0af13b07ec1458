package experiment

import (
	"runtime"
	"testing"
	"time"

	"bitcoinng/internal/types"
)

// TestViewBitsetWordBoundaries exercises indices straddling 64-bit word
// edges: 63/64 and 127/128 must land in different words without cross-talk.
func TestViewBitsetWordBoundaries(t *testing.T) {
	w, err := NewStreamWorkload(21, 476, 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	v := w.NewView()
	for _, i := range []int64{63, 64, 127, 128} {
		tx := w.Stream().Tx(i)
		v.RemoveConfirmed([]*types.Transaction{tx})
		if v.ConfirmedCount() == 0 {
			t.Fatalf("index %d did not confirm", i)
		}
	}
	if v.ConfirmedCount() != 4 {
		t.Fatalf("confirmed = %d, want 4", v.ConfirmedCount())
	}
	// Neighbors stay unconfirmed: prefix must still be 0.
	if p := v.ConfirmedPrefix(); p != 0 {
		t.Fatalf("prefix = %d, want 0", p)
	}
	// Confirm 0..62: prefix advances exactly to 65 (63 and 64 were set).
	var batch []*types.Transaction
	for i := int64(0); i < 63; i++ {
		batch = append(batch, w.Stream().Tx(i))
	}
	v.RemoveConfirmed(batch)
	if p := v.ConfirmedPrefix(); p != 65 {
		t.Fatalf("prefix = %d, want 65", p)
	}
}

// TestViewDoubleConfirmAndReinsertIdempotence: re-confirming is a no-op;
// double reinsert is a no-op; counts never drift.
func TestViewDoubleConfirmAndReinsertIdempotence(t *testing.T) {
	w, err := NewStreamWorkload(22, 476, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	v := w.NewView()
	tx := w.Stream().Tx(5)
	txs := []*types.Transaction{tx}
	v.RemoveConfirmed(txs)
	v.RemoveConfirmed(txs) // duplicate confirm
	if v.ConfirmedCount() != 1 {
		t.Fatalf("confirmed = %d after double confirm, want 1", v.ConfirmedCount())
	}
	v.Reinsert(txs)
	v.Reinsert(txs) // duplicate reinsert
	if v.ConfirmedCount() != 0 {
		t.Fatalf("confirmed = %d after double reinsert, want 0", v.ConfirmedCount())
	}
	// The transaction is offerable again exactly once.
	got := v.Select(1 << 20)
	seen := 0
	for _, x := range got {
		if x == tx {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("reinserted tx offered %d times, want 1", seen)
	}
}

// TestViewCompactFloor: compaction drops whole words, treats dropped
// indices as confirmed, and ignores reinserts below the floor (best-effort
// lost, like a real mempool shedding).
func TestViewCompactFloor(t *testing.T) {
	w, err := NewStreamWorkload(23, 476, 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	v := w.NewView()
	var batch []*types.Transaction
	for i := int64(0); i < 200; i++ {
		batch = append(batch, w.Stream().Tx(i))
	}
	v.RemoveConfirmed(batch)
	v.Compact(130) // word floor: 130/64 = word 2, indices < 128 dropped
	if len(v.confirmed) == 0 {
		t.Fatal("compaction dropped live words")
	}
	if p := v.ConfirmedPrefix(); p != 200 {
		t.Fatalf("prefix = %d after compact, want 200", p)
	}
	// Reinsert below the floor: silently lost.
	v.Reinsert([]*types.Transaction{w.Stream().Tx(5)})
	if v.ConfirmedCount() != 200 {
		t.Fatal("reinsert below the compaction floor must be a no-op")
	}
	// Reinsert above the floor still works.
	v.Reinsert([]*types.Transaction{w.Stream().Tx(150)})
	if v.ConfirmedCount() != 199 || v.ConfirmedPrefix() != 150 {
		t.Fatalf("reinsert above floor broken: count=%d prefix=%d", v.ConfirmedCount(), v.ConfirmedPrefix())
	}
	// Compact never regresses.
	v.Compact(0)
	if v.ConfirmedPrefix() != 150 {
		t.Fatal("zero-floor compact must not move state")
	}
}

// TestViewGrowthAfterCompactReadsZeros: Compact shifts the live words down
// and leaves the dropped words' old contents past len, inside the slice's
// capacity. A setBit that grows the window again must expose only fresh
// zero words, never those stale ones (growing by re-slicing would mark
// unconfirmed transactions confirmed).
func TestViewGrowthAfterCompactReadsZeros(t *testing.T) {
	w, err := NewStreamWorkload(24, 476, 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	v := w.NewView()
	for i := int64(0); i < 4*64; i++ {
		v.setBit(i) // four all-ones words
	}
	v.Compact(2 * 64)
	if len(v.confirmed) != 2 || cap(v.confirmed) < 4 {
		t.Fatalf("compact left len %d cap %d, want 2 live words with stale ones past them", len(v.confirmed), cap(v.confirmed))
	}
	set := map[int64]bool{4*64 + 5: true, 5*64 + 7: true}
	for i := range set {
		if !v.setBit(i) {
			t.Fatalf("index %d read as already confirmed before its setBit", i)
		}
	}
	for i := int64(4 * 64); i < 6*64; i++ {
		if v.bit(i) != set[i] {
			t.Errorf("index %d reads confirmed=%v after regrowth, want %v", i, v.bit(i), set[i])
		}
	}
}

// TestPacedRunDeterministicAcrossEngines is the tentpole's determinism
// gate in miniature: an open-loop streaming run must produce byte-identical
// load reports and backpressure series at parallelism 1 vs 4, and with the
// connect cache off.
func TestPacedRunDeterministicAcrossEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism check")
	}
	mk := func(parallelism int, cacheOff bool) *Result {
		cfg := DefaultConfig(BitcoinNG, 12, 4)
		cfg.Offered = 12
		cfg.BandwidthBPS = 1e6
		cfg.TargetBlocks = 1 << 30
		cfg.MaxSimTime = 10 * time.Minute
		cfg.Parallelism = parallelism
		cfg.DisableConnectCache = cacheOff
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mk(1, false)
	for _, c := range []struct {
		name string
		res  *Result
	}{
		{"parallelism-4", mk(4, false)},
		{"cache-off", mk(1, true)},
	} {
		name, res := c.name, c.res
		if *res.Load != *base.Load {
			t.Errorf("%s: load report diverged:\n  base %+v\n  got  %+v", name, base.Load, res.Load)
		}
		if len(res.Backpressure) != len(base.Backpressure) {
			t.Fatalf("%s: backpressure series count diverged", name)
		}
		for i := range base.Backpressure {
			if res.Backpressure[i] != base.Backpressure[i] {
				t.Errorf("%s: backpressure %q diverged: %+v vs %+v",
					name, base.Backpressure[i].Name, base.Backpressure[i], res.Backpressure[i])
			}
		}
		if res.Report.TxFrequency != base.Report.TxFrequency {
			t.Errorf("%s: ledger throughput diverged", name)
		}
	}
}

// TestStreamingRunBoundedMemory is the acceptance soak: a run whose
// offered load would have pre-signed far beyond a sane RAM budget completes
// with the resident window bounded by the release floor.
func TestStreamingRunBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory soak")
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// The bounded lookahead admits only as fast as confirmations progress,
	// so reaching streaming scale needs service capacity above the offered
	// rate: 1 MB microblocks every 2s serialize ~1000 tx/s, comfortably
	// above the 400 tx/s offered here.
	cfg := DefaultConfig(BitcoinNG, 8, 6)
	cfg.Offered = 400 // 45m at 400 tx/s: ~1.0M txs, far beyond a pre-sign budget
	cfg.BandwidthBPS = 1e8
	cfg.Params.MicroblockInterval = 2 * time.Second
	cfg.Params.MaxBlockSize = 1_000_000
	cfg.TargetBlocks = 1 << 30
	cfg.MaxSimTime = 45 * time.Minute
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Load.Admitted < 1_000_000 {
		t.Fatalf("admitted only %d txs; soak did not reach streaming scale", res.Load.Admitted)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	// Pre-signing 1M 476-byte transactions held ~0.5 GB of payload plus
	// per-object overhead. The streaming run must stay well under that: the
	// resident window is the release slack (a few blockfuls), not the run.
	const budget = 300 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > budget {
		t.Fatalf("heap grew %d MB over the soak; streaming window is not bounded", grew>>20)
	}
	if res.Load.Confirmed == 0 {
		t.Fatal("soak confirmed nothing")
	}
}
