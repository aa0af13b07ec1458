package load

import (
	"strings"
	"sync"
	"testing"
	"time"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// testStream returns a bound stream over a synthetic funding coinbase.
func testStream(t *testing.T, cfg StreamConfig) *Stream {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Bind(crypto.HashBytes([]byte("funding")), 0)
	return s
}

func TestStreamDeterministicUnderConcurrency(t *testing.T) {
	const n = 600
	cfg := StreamConfig{Seed: 7, Lanes: 64, MaxTxs: n}
	want := referenceIDs(t, cfg, n)

	// Eight racing consumers over a fresh stream, indices interleaved, must
	// see exactly the batches buildBatch produces in index order, however
	// the signer's lookahead interleaves with their installs.
	conc := testStream(t, cfg)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				if got := conc.Tx(int64(i)).ID(); got != want[i] {
					errs <- "tx mismatch"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}
	if conc.Tx(0).WireSize() != 476 {
		t.Fatalf("default tx size = %d, want 476", conc.Tx(0).WireSize())
	}
}

func TestStreamChainsLanes(t *testing.T) {
	s := testStream(t, StreamConfig{Seed: 3, Lanes: 4, MaxTxs: 12})
	// Tx i spends the output of tx i-Lanes.
	for i := int64(4); i < 12; i++ {
		prev := s.Tx(i - 4)
		if got := s.Tx(i).Inputs[0].Prev; got.TxID != prev.ID() || got.Index != 0 {
			t.Fatalf("tx %d does not spend its lane predecessor", i)
		}
	}
	// Values decay by StreamFee per hop.
	if got := s.Tx(9).Outputs[0].Value; got != laneFund-3*StreamFee {
		t.Fatalf("tx 9 value = %d, want %d", got, laneFund-3*StreamFee)
	}
	// Cap honored.
	if s.Tx(12) != nil {
		t.Fatal("Tx beyond MaxTxs must be nil")
	}
	if s.Tx(-1) != nil {
		t.Fatal("negative index must be nil")
	}
}

func TestStreamReleaseAndOccupancy(t *testing.T) {
	s := testStream(t, StreamConfig{Seed: 5, Lanes: 8, MaxTxs: 200})
	s.Tx(99) // materialize 0..103 (13 batches of 8)
	if gen := s.Generated(); gen != 104 {
		t.Fatalf("generated = %d, want 104", gen)
	}
	s.Release(50) // rounds down to 48
	if got := s.Released(); got != 48 {
		t.Fatalf("released = %d, want 48 (lane-aligned)", got)
	}
	if got := s.Occupancy(); got != 104-48 {
		t.Fatalf("occupancy = %d, want %d", got, 104-48)
	}
	if s.Tx(47) != nil {
		t.Fatal("released slot must read nil")
	}
	if s.Tx(48) == nil {
		t.Fatal("first retained slot must stay readable")
	}
	// Release never regresses.
	s.Release(8)
	if got := s.Released(); got != 48 {
		t.Fatalf("release regressed to %d", got)
	}
	// Generation continues past a release with chain links intact.
	tx := s.Tx(150)
	if tx == nil {
		t.Fatal("generation stalled after release")
	}
	if idx, ok := TxIndex(tx); !ok || idx != 150 {
		t.Fatalf("TxIndex = %d,%v want 150,true", idx, ok)
	}
}

func TestTxIndexRoundTrip(t *testing.T) {
	s := testStream(t, StreamConfig{Seed: 9, Lanes: 2, MaxTxs: 10})
	for i := int64(0); i < 10; i++ {
		idx, ok := TxIndex(s.Tx(i))
		if !ok || idx != i {
			t.Fatalf("TxIndex(%d) = %d,%v", i, idx, ok)
		}
	}
	// Non-members are rejected.
	if _, ok := TxIndex(&types.Transaction{Kind: types.TxRegular}); ok {
		t.Fatal("unstamped tx must not decode")
	}
	foreign := &types.Transaction{Kind: types.TxRegular, Padding: make([]byte, 64)}
	if _, ok := TxIndex(foreign); ok {
		t.Fatal("zero padding must not decode as a stamp")
	}
	cb := &types.Transaction{Kind: types.TxCoinbase, Padding: append([]byte("NGLD"), make([]byte, 8)...)}
	if _, ok := TxIndex(cb); ok {
		t.Fatal("coinbase must not decode even with magic")
	}
}

func TestOfferedAtOfferTimeInverse(t *testing.T) {
	for _, rate := range []float64{0.5, 1, 3.5, 40, 1000} {
		for _, i := range []int64{0, 1, 7, 99, 12345} {
			at := OfferTime(rate, i)
			if got := OfferedAt(rate, at); got < i+1 {
				t.Fatalf("rate %v: OfferedAt(OfferTime(%d)) = %d, want >= %d", rate, i, got, i+1)
			}
			if at > 0 {
				if got := OfferedAt(rate, at-1); got > i+1 {
					t.Fatalf("rate %v: index %d offered too early", rate, i)
				}
			}
		}
	}
	if OfferedAt(0, 1e9) != 0 || OfferedAt(5, -1) != 0 {
		t.Fatal("degenerate OfferedAt inputs must be 0")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.50); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := percentile(sorted, 0.90); got != 9 {
		t.Fatalf("p90 = %v, want 9", got)
	}
	if got := percentile(sorted, 0.99); got != 10 {
		t.Fatalf("p99 = %v, want 10", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v, want 0", got)
	}
}

func TestBlasterOpenLoop(t *testing.T) {
	s := testStream(t, StreamConfig{Seed: 11, Lanes: 8, MaxTxs: 1000})
	b := NewBlaster(s, BlasterConfig{Rate: 10})
	var got []*types.Transaction
	admit := func(tx *types.Transaction) bool { got = append(got, tx); return true }
	b.Tick(int64(2*time.Second), 0, admit)
	if b.Injected() != 20 || len(got) != 20 {
		t.Fatalf("injected %d after 2s at 10/s, want 20", b.Injected())
	}
	// Idempotent at the same instant.
	b.Tick(int64(2*time.Second), 0, admit)
	if b.Injected() != 20 {
		t.Fatal("re-tick at same time must inject nothing")
	}
	// Rejections count but do not stall the frontier.
	b.Tick(int64(3*time.Second), 0, func(*types.Transaction) bool { return false })
	if b.Injected() != 30 || b.Rejected() != 10 {
		t.Fatalf("injected=%d rejected=%d, want 30/10", b.Injected(), b.Rejected())
	}
}

func TestBlasterClosedLoop(t *testing.T) {
	s := testStream(t, StreamConfig{Seed: 12, Lanes: 8, MaxTxs: 1000})
	b := NewBlaster(s, BlasterConfig{Window: 16})
	admit := func(*types.Transaction) bool { return true }
	b.Tick(0, 0, admit)
	if b.Injected() != 16 {
		t.Fatalf("closed loop injected %d, want window 16", b.Injected())
	}
	b.Tick(int64(time.Second), 0, admit)
	if b.Injected() != 16 {
		t.Fatal("window full: nothing more until confirmations")
	}
	b.Tick(int64(2*time.Second), 10, admit)
	if b.Injected() != 26 {
		t.Fatalf("injected %d after 10 confs, want 26", b.Injected())
	}
}

func TestBlasterReportLatencies(t *testing.T) {
	s := testStream(t, StreamConfig{Seed: 13, Lanes: 4, MaxTxs: 100})
	b := NewBlaster(s, BlasterConfig{Rate: 4})
	admit := func(*types.Transaction) bool { return true }
	b.Tick(int64(time.Second), 0, admit)   // 0..3 at t=1s
	b.Tick(int64(2*time.Second), 0, admit) // 4..7 at t=2s
	confs := []Confirmation{
		{Index: 0, Time: int64(3 * time.Second)},
		{Index: 1, Time: int64(3 * time.Second)},
		{Index: 4, Time: int64(4 * time.Second)},
	}
	r := b.Report(10*time.Second, confs)
	if r.Offered != 40 { // analytic frontier: 4/s for 10s
		t.Fatalf("offered = %d, want 40", r.Offered)
	}
	if r.Admitted != 8 || r.Confirmed != 3 {
		t.Fatalf("admitted=%d confirmed=%d, want 8/3", r.Admitted, r.Confirmed)
	}
	if r.P50 != 2*time.Second {
		t.Fatalf("p50 = %v, want 2s (offered t=1s confirmed t=3s)", r.P50)
	}
	var sb strings.Builder
	r.Fprint(&sb)
	if !strings.Contains(sb.String(), "mode=open rate=4.00/s") {
		t.Fatalf("Fprint output unexpected: %q", sb.String())
	}
}

func TestBlasterReleaseBehindRetainsOfferTimes(t *testing.T) {
	s := testStream(t, StreamConfig{Seed: 14, Lanes: 8, MaxTxs: 1000})
	b := NewBlaster(s, BlasterConfig{Rate: 100})
	admit := func(*types.Transaction) bool { return true }
	b.Tick(int64(time.Second), 0, admit) // 0..99
	b.ReleaseBehind(64, 0)
	if got := s.Released(); got != 64 {
		t.Fatalf("stream released = %d, want 64", got)
	}
	// Retained indices keep their recorded times; released ones are dropped.
	if at, ok := b.offerTimeOf(64); !ok || at != int64(time.Second) {
		t.Fatalf("offer time of retained index lost: %v %v", at, ok)
	}
	if _, ok := b.offerTimeOf(63); ok {
		t.Fatal("offer time of released index must be gone")
	}
}

// TestBlasterSteadyStateDoesNotAllocate pins the blaster's bookkeeping: once
// its offer-time log has reached the outstanding window, a Tick and the
// ReleaseBehind that follows it shift the log in place and allocate nothing.
// The stream is materialized first, as the benchmark's presign does, so only
// the blaster is measured.
func TestBlasterSteadyStateDoesNotAllocate(t *testing.T) {
	const rate, outstanding = 64, 128
	s := testStream(t, StreamConfig{Seed: 15, Lanes: 8, MaxTxs: 8192})
	for i := int64(0); i < s.MaxTxs(); i++ {
		s.Tx(i)
	}
	b := NewBlaster(s, BlasterConfig{Rate: rate})
	admit := func(*types.Transaction) bool { return true }
	now := int64(0)
	cycle := func() {
		now += int64(time.Second)
		b.Tick(now, 0, admit)
		b.ReleaseBehind(b.Injected()-outstanding, 0)
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a steady-state Tick and ReleaseBehind allocate %v times, want 0", allocs)
	}
	if got := b.Injected(); got != 111*rate {
		t.Fatalf("injected %d, want %d", got, 111*rate)
	}
	if at, ok := b.offerTimeOf(b.Injected() - 1); !ok || at != now {
		t.Fatalf("offer time of the newest index: %v %v, want %v", at, ok, now)
	}
}
