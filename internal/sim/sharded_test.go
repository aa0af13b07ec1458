package sim

import (
	"fmt"
	"testing"
	"time"
)

// shardedHarness is a toy multi-node message simulation used to cross-check
// the sharded engine against the sequential loop: n nodes, each with a timer
// process, exchanging messages whose delay is at least minDelay.
type toyNode struct {
	id      int
	loop    *Loop
	log     *[]string
	counter int
}

// toyMsg is a cross-node message; in sharded mode it is routed through the
// outbox the way simnet routes deliveries.
type toyMsg struct {
	to      *toyNode
	payload int
}

func (m *toyMsg) Run() {
	n := m.to
	*n.log = append(*n.log, fmt.Sprintf("%d recv %d @%d", n.id, m.payload, n.loop.Now()))
}

// runToy executes the same deterministic workload on either engine and
// returns the merged, per-node-ordered log. send delays are ≥ minDelay so a
// lookahead of minDelay is valid.
func runToy(t *testing.T, shards int, until int64) []string {
	t.Helper()
	const nodes = 6
	const minDelay = 50

	var sl *ShardedLoop
	loopFor := make([]*Loop, nodes)
	shardOf := make([]int, nodes)
	if shards == 1 {
		l := NewLoop(0)
		for i := range loopFor {
			loopFor[i] = l
		}
	} else {
		sl = NewShardedLoop(0, shards)
		sl.SetLookahead(minDelay)
		defer sl.Close()
		for i := range loopFor {
			shardOf[i] = i % shards
			loopFor[i] = sl.Shard(i % shards)
		}
	}

	logs := make([][]string, nodes)
	ns := make([]*toyNode, nodes)
	for i := range ns {
		ns[i] = &toyNode{id: i, loop: loopFor[i], log: &logs[i]}
	}

	// Cross-shard sends go through per-shard outboxes, merged at barriers in
	// (arrival, sendTime, shard) order with the send time as heap priority —
	// the same protocol simnet uses.
	type pending struct {
		arrival, sent int64
		msg           *toyMsg
	}
	outbox := make([][]pending, shards)
	send := func(from, to, payload int, delay int64) {
		l := loopFor[from]
		arrival := l.Now() + delay
		m := &toyMsg{to: ns[to], payload: payload}
		if shards == 1 || shardOf[from] == shardOf[to] {
			l.PostEvent(arrival, m)
			return
		}
		outbox[shardOf[from]] = append(outbox[shardOf[from]], pending{arrival, l.Now(), m})
	}
	if sl != nil {
		sl.OnBarrier(func() {
			var all []pending
			for s := range outbox {
				all = append(all, outbox[s]...)
				outbox[s] = outbox[s][:0]
			}
			// Stable insertion sort by (arrival, sent); concatenation order
			// keeps the shard tie-break.
			for i := 1; i < len(all); i++ {
				for j := i; j > 0 && (all[j].arrival < all[j-1].arrival ||
					(all[j].arrival == all[j-1].arrival && all[j].sent < all[j-1].sent)); j-- {
					all[j], all[j-1] = all[j-1], all[j]
				}
			}
			for _, p := range all {
				loopFor[p.msg.to.id].PostEventPrio(p.arrival, p.sent, p.msg)
			}
		})
	}

	// Deterministic per-node timer processes: node i ticks every 7+i units,
	// sending to (i+1)%n and (i+3)%n with delays derived from the tick. The
	// sender id lands in the delay's low bits so two different senders never
	// produce the same (send time, arrival time) pair — the full double-tie
	// the engine's determinism guarantee excludes (see ShardedLoop doc) —
	// while same-arrival ties across *different* send times (which the
	// priority key must resolve) stay plentiful.
	for i := range ns {
		i := i
		var tick func()
		period := int64(7 + i)
		tick = func() {
			n := ns[i]
			n.counter++
			*n.log = append(*n.log, fmt.Sprintf("%d tick %d @%d", i, n.counter, n.loop.Now()))
			send(i, (i+1)%nodes, n.counter, minDelay+16*int64(n.counter%17)+int64(i))
			send(i, (i+3)%nodes, -n.counter, minDelay+16*int64((n.counter*5)%13)+int64(i))
			n.loop.After(time.Duration(period), tick)
		}
		loopFor[i].After(time.Duration(period), tick)
	}

	if sl != nil {
		sl.RunUntil(until)
	} else {
		loopFor[0].RunUntil(until)
	}

	var merged []string
	for i := range logs {
		merged = append(merged, logs[i]...)
	}
	return merged
}

// TestShardedMatchesSequential runs the toy workload on 1, 2, 3, and 5
// shards and requires identical per-node event logs.
func TestShardedMatchesSequential(t *testing.T) {
	want := runToy(t, 1, 2000)
	if len(want) == 0 {
		t.Fatal("sequential run produced no events")
	}
	for _, shards := range []int{2, 3, 5} {
		got := runToy(t, shards, 2000)
		if len(got) != len(want) {
			t.Fatalf("%d shards: %d events, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d shards: event %d = %q, want %q", shards, i, got[i], want[i])
			}
		}
	}
}

// TestShardedGlobalEvents checks that globals fire at their exact virtual
// time, before same-instant shard events, in scheduling order.
func TestShardedGlobalEvents(t *testing.T) {
	sl := NewShardedLoop(0, 2)
	defer sl.Close()
	sl.SetLookahead(10)

	var order []string
	sl.Shard(0).At(100, func() { order = append(order, "shard@100") })
	sl.Shard(1).At(150, func() { order = append(order, "shard@150") })
	sl.ScheduleGlobal(100, func() {
		order = append(order, fmt.Sprintf("globalA@%d", sl.Now()))
	})
	sl.ScheduleGlobal(100, func() { order = append(order, "globalB") })

	sl.RunUntil(200)
	want := []string{"globalA@100", "globalB", "shard@100", "shard@150"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if sl.Now() != 200 {
		t.Fatalf("Now() = %d, want 200", sl.Now())
	}
	if sl.Executed() != 4 { // 2 shard events + 2 globals
		t.Fatalf("Executed() = %d, want 4", sl.Executed())
	}
}

// TestShardedGlobalSeesAlignedClocks: a global scheduled between events must
// observe every shard clock at exactly its instant.
func TestShardedGlobalSeesAlignedClocks(t *testing.T) {
	sl := NewShardedLoop(0, 3)
	defer sl.Close()
	sl.SetLookahead(5)
	sl.Shard(2).At(500, func() {})
	sl.ScheduleGlobal(123, func() {
		for i := 0; i < sl.Shards(); i++ {
			if got := sl.Shard(i).Now(); got != 123 {
				t.Errorf("shard %d clock = %d at global, want 123", i, got)
			}
		}
	})
	sl.RunUntil(1000)
}

// TestShardedWindowRespectsLookahead: an event posted cross-window must not
// fire before a barrier has run.
func TestShardedBarrierHookRuns(t *testing.T) {
	sl := NewShardedLoop(0, 2)
	defer sl.Close()
	sl.SetLookahead(10)
	barriers := 0
	sl.OnBarrier(func() { barriers++ })
	for i := int64(1); i <= 5; i++ {
		sl.Shard(0).At(i*100, func() {})
	}
	sl.RunUntil(1000)
	if barriers == 0 {
		t.Fatal("barrier hook never ran")
	}
	if sl.Executed() != 5 {
		t.Fatalf("Executed() = %d, want 5", sl.Executed())
	}
}

// TestShardedPanicPropagates: a panic on a shard goroutine surfaces on the
// driver with the shard's stack, instead of deadlocking.
func TestShardedPanicPropagates(t *testing.T) {
	sl := NewShardedLoop(0, 2)
	defer sl.Close()
	sl.Shard(1).At(10, func() { panic("boom") })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	sl.RunUntil(100)
}

// TestShardedEmptyJump: with no events pending, RunUntil must not iterate
// windows (it jumps straight to the deadline).
func TestShardedEmptyJump(t *testing.T) {
	sl := NewShardedLoop(0, 4)
	defer sl.Close()
	sl.SetLookahead(1) // worst case window size
	windows := 0
	sl.OnBarrier(func() { windows++ })
	sl.RunUntil(int64(time.Hour))
	if windows > 1 {
		t.Fatalf("empty run used %d windows, want ≤ 1", windows)
	}
}

// ticker re-posts itself every period on its own loop: a shard with work in
// every window that allocates nothing itself.
type ticker struct {
	loop   *Loop
	period int64
	fired  int
}

func (k *ticker) Run() {
	k.fired++
	k.loop.PostEvent(k.loop.Now()+k.period, k)
}

// TestShardedWindowDoesNotAllocate pins the engine's own cost per window:
// once warm, dispatching two busy shards, collecting their results and
// running the barrier allocates nothing.
func TestShardedWindowDoesNotAllocate(t *testing.T) {
	sl := NewShardedLoop(0, 2)
	defer sl.Close()
	sl.SetLookahead(10)
	var ks [2]*ticker
	for i := range ks {
		ks[i] = &ticker{loop: sl.Shard(i), period: 7 + int64(i)}
		ks[i].loop.PostEvent(1, ks[i])
	}
	barriers := 0
	sl.OnBarrier(func() { barriers++ })
	window := func() { sl.RunFor(10) }
	window()
	if allocs := testing.AllocsPerRun(200, window); allocs != 0 {
		t.Fatalf("a warm two-shard window allocates %v times, want 0", allocs)
	}
	if barriers < 200 || ks[0].fired == 0 || ks[1].fired == 0 {
		t.Fatalf("%d barriers, shards fired %d and %d: the windows did not run", barriers, ks[0].fired, ks[1].fired)
	}
}
