package simnet

import (
	"testing"
	"time"

	"bitcoinng/internal/sim"
)

// TestFlushOutboxesOrderAndAllocations: a barrier injects cross-shard
// deliveries into the receiving loop by (arrival, send time, sender shard),
// and after warm-up does so without allocating — the merge reuses its
// scratch and the sort uses no reflection. Outboxes are filled by hand from
// preallocated deliveries so the measured function allocates only what
// FlushOutboxes and the loop do.
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
	ds := make([]*delivery, len(msgs))
	for i, m := range msgs {
		ds[i] = &delivery{n: net, from: m.shard, to: 2, payload: m.name}
	}
	got := make([]any, 0, len(msgs))
	net.Handle(2, func(_ int, payload any, _ int) { got = append(got, payload) })

	round := func() {
		base := loops[2].Now()
		for i, m := range msgs {
			ds[i].arrived = false
			net.outbox[m.shard] = append(net.outbox[m.shard], outMsg{arrival: base + m.arrival, sent: base + m.sent, d: ds[i]})
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
