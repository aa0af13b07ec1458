package simnet

import (
	"testing"
	"time"

	"bitcoinng/internal/sim"
)

// TestFlushOutboxesOrderAndAllocations: a barrier injects cross-shard
// deliveries into the receiving loop by (arrival, send time, sender shard),
// and after warm-up does so without allocating — the merge reuses its
// scratch and the sort uses no reflection. Outboxes are filled by hand with
// deliveries taken from the senders' pools, as Send takes them, so the
// measured function allocates only what FlushOutboxes, the loop and the
// pools do: the barrier hands each round's deliveries back to their
// senders' shards for the round after next.
func TestFlushOutboxesOrderAndAllocations(t *testing.T) {
	loops := []*sim.Loop{sim.NewLoop(0), sim.NewLoop(0), sim.NewLoop(0)}
	net := New(sim.NewLoop(0), Config{Nodes: 3, MinPeers: 2, Latency: Fixed(time.Millisecond), BandwidthBPS: 1e9, Seed: 1})
	net.Shard(loops, []int{0, 1, 2})
	type msg struct {
		shard         int
		arrival, sent int64
		name          any
	}
	// Outboxes need not be time-sorted; ties cross shards.
	msgs := []msg{
		{0, 5, 1, "a"}, {0, 3, 2, "b"}, {0, 3, 1, "c"},
		{1, 3, 1, "d"}, {1, 5, 0, "e"}, {1, 4, 4, "f"},
	}
	want := []any{"c", "d", "b", "f", "e", "a"}
	got := make([]any, 0, len(msgs))
	net.Handle(2, func(_ int, payload any, _ int) { got = append(got, payload) })

	round := func() {
		base := loops[2].Now()
		for _, m := range msgs {
			d := net.newDelivery(m.shard, m.shard, 2, m.name, 0)
			net.outbox[m.shard] = append(net.outbox[m.shard], outMsg{arrival: base + m.arrival, sent: base + m.sent, d: d})
		}
		net.FlushOutboxes()
		got = got[:0]
		loops[2].Drain(0)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("delivery order %v, want %v", got, want)
			}
		}
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("a barrier flush allocates %.0f objects, want 0", avg)
	}
}

// TestSendDeliverDoesNotAllocate pins the steady state of message delivery:
// once the pools are warm, a Send and its two hops to the handler allocate
// nothing, on one loop and across two shards with traffic both ways (each
// shard's deliveries finish on the other and come back at a barrier).
func TestSendDeliverDoesNotAllocate(t *testing.T) {
	cfg := Config{Nodes: 2, MinPeers: 1, Latency: Fixed(time.Millisecond), BandwidthBPS: 1e9,
		ProcPerMsg: time.Microsecond, Seed: 1}
	payload := new(int)
	var got [2]int
	handle := func(net *Network) {
		for id := range got {
			net.Handle(id, func(_ int, p any, _ int) {
				if p == payload {
					got[id]++
				}
			})
		}
	}
	check := func(t *testing.T, cycle func()) {
		t.Helper()
		got = [2]int{}
		for i := 0; i < 4; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Fatalf("a warm send and delivery allocate %v times, want 0", allocs)
		}
		if got[0] != 205 || got[1] != 205 {
			t.Fatalf("delivered %v, want 205 each way", got)
		}
	}
	t.Run("sequential", func(t *testing.T) {
		loop := sim.NewLoop(0)
		net := New(loop, cfg)
		handle(net)
		check(t, func() {
			net.Send(0, 1, payload, 100)
			net.Send(1, 0, payload, 100)
			loop.Drain(0)
		})
	})
	t.Run("two shards", func(t *testing.T) {
		sl := sim.NewShardedLoop(0, 2)
		defer sl.Close()
		net := New(sl.Shard(0), cfg)
		net.Shard([]*sim.Loop{sl.Shard(0), sl.Shard(1)}, []int{0, 1})
		sl.SetLookahead(net.MinCrossShardLatency())
		sl.OnBarrier(net.FlushOutboxes)
		handle(net)
		check(t, func() {
			// The driver sends while the shards are parked and flushes,
			// as a scenario step and the barrier after it would.
			net.Send(0, 1, payload, 100)
			net.Send(1, 0, payload, 100)
			net.FlushOutboxes()
			sl.RunFor(10 * time.Millisecond)
		})
	})
}
