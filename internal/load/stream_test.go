package load

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"bitcoinng/internal/crypto"
)

// referenceIDs returns the first n transaction IDs of cfg's stream built by
// calling buildBatch in index order, each batch from the lane heads the
// previous one left — the sequence the background signer must reproduce.
func referenceIDs(t *testing.T, cfg StreamConfig, n int64) []crypto.Hash {
	t.Helper()
	s := testStream(t, cfg)
	heads, vals := s.heads, s.headVal // no Tx call yet: no signer reads them
	var ids []crypto.Hash
	for g := int64(0); g < n; {
		batch, nh, nv := s.buildBatch(g, heads, vals)
		for _, tx := range batch {
			ids = append(ids, tx.ID())
		}
		g += int64(len(batch))
		heads, vals = nh, nv
	}
	return ids[:n]
}

// waitSignerIdle blocks until no signer goroutine is running.
func waitSignerIdle(s *Stream) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.signing {
		s.queued.Wait()
	}
}

// waitGoroutines waits for the goroutine count to fall back to baseline: a
// signer that has cleared its flag still has to return.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most the baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamMatchesNoLookaheadModel drives random Tx/Release scripts and,
// after every step, compares Generated, Occupancy, Released and the returned
// transaction with a model that builds each batch only when a Tx call needs
// it: the signer's lookahead must be invisible.
func TestStreamMatchesNoLookaheadModel(t *testing.T) {
	const lanes, maxTxs = 8, 400
	cfg := StreamConfig{Seed: 17, Lanes: lanes, MaxTxs: maxTxs}
	want := referenceIDs(t, cfg, maxTxs)
	for script := int64(0); script < 8; script++ {
		rng := rand.New(rand.NewSource(script))
		s := testStream(t, cfg)
		var gen, base int64 // the model
		for step := 0; step < 200; step++ {
			if rng.Intn(3) == 0 {
				before := gen - int64(rng.Intn(3*lanes)) + lanes
				s.Release(before)
				if before > gen {
					before = gen
				}
				if before -= before % lanes; before > base {
					base = before
				}
			} else {
				i := gen - 2*lanes + int64(rng.Intn(5*lanes))
				tx := s.Tx(i)
				if i >= 0 && i < maxTxs {
					for gen <= i {
						gen = min(gen+lanes, maxTxs)
					}
				}
				switch {
				case i < 0 || i >= maxTxs || i < base:
					if tx != nil {
						t.Fatalf("script %d step %d: Tx(%d) = %v, want nil", script, step, i, tx.ID())
					}
				case tx == nil || tx.ID() != want[i]:
					t.Fatalf("script %d step %d: Tx(%d) is not the reference transaction", script, step, i)
				}
			}
			if g, o, r := s.Generated(), s.Occupancy(), s.Released(); g != gen || o != gen-base || r != base {
				t.Fatalf("script %d step %d: generated/occupancy/released = %d/%d/%d, model %d/%d/%d",
					script, step, g, o, r, gen, gen-base, base)
			}
		}
	}
}

// TestSignerExitsWithDemand: the signer is gone once a capped stream is
// drained, and an abandoned uncapped stream stops after lookahead batches
// nobody asked for.
func TestSignerExitsWithDemand(t *testing.T) {
	const lanes = 8
	baseline := runtime.NumGoroutine()

	capped := testStream(t, StreamConfig{Seed: 19, Lanes: lanes, MaxTxs: 100})
	for i := int64(0); i < 100; i++ {
		if capped.Tx(i) == nil {
			t.Fatalf("capped stream: Tx(%d) = nil", i)
		}
	}
	waitSignerIdle(capped)
	if capped.next != 100 || len(capped.ready) != 0 {
		t.Fatalf("drained capped stream: next %d, %d batches queued; want 100, 0", capped.next, len(capped.ready))
	}
	waitGoroutines(t, baseline)

	uncapped := testStream(t, StreamConfig{Seed: 19, Lanes: lanes})
	uncapped.Tx(3 * lanes)
	waitSignerIdle(uncapped)
	uncapped.mu.Lock()
	ahead := uncapped.next - uncapped.generated
	uncapped.mu.Unlock()
	if ahead != lookahead*lanes {
		t.Fatalf("abandoned stream signed %d transactions past demand, want %d (lookahead %d batches)",
			ahead, lookahead*lanes, lookahead)
	}
	waitGoroutines(t, baseline)
}

var pacedSink crypto.Hash

// BenchmarkStreamPaced consumes an uncapped stream one batch per op and then
// does a fixed amount of unrelated work, as a simulation does between two
// leaders' Selects. With the signer ahead, the next batch is signed while
// that work runs, so on a machine with a spare core ns/op approaches the
// larger of the two costs rather than their sum.
func BenchmarkStreamPaced(b *testing.B) {
	const lanes = 64
	s, err := NewStream(StreamConfig{Seed: 1, Lanes: lanes})
	if err != nil {
		b.Fatal(err)
	}
	s.Bind(crypto.HashBytes([]byte("funding")), 0)
	work := make([]byte, 1<<20)
	b.ReportAllocs()
	var next int64
	for b.Loop() {
		for end := next + lanes; next < end; next++ {
			if s.Tx(next) == nil {
				b.Fatal("stream ended")
			}
		}
		pacedSink = crypto.HashBytes(work)
		s.Release(next)
	}
}
