package sim

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"
)

// ShardedLoop runs S event loops in lockstep windows — a conservative
// (CMB/YAWNS-style) parallel discrete-event engine. Simulation state is
// partitioned across shards; each shard owns one Loop and executes its
// events on its own goroutine. Shards only interact through messages whose
// delivery delay is bounded below by the lookahead, so a window of virtual
// time (now, T] with T ≤ earliest-pending + lookahead can execute on every
// shard concurrently: nothing a shard does inside the window can affect
// another shard until strictly after T. At each window barrier the driver
// runs the registered barrier hooks (cross-shard message injection, metric
// merges) single-threaded, which also publishes all shard memory writes to
// the other shards for the next window.
//
// Determinism: each shard's execution is a deterministic function of its own
// event stream, and cross-shard injections are ordered by (arrival time,
// scheduling time, sender shard) at the barrier — the same order the
// sequential engine's (time, priority, sequence) heap would have produced.
// A run therefore yields the same result at any shard count, including one,
// up to exact virtual-time ties between events on different shards (which
// the continuous latency and mining distributions make vanishingly rare; the
// CI determinism gate cross-checks sequential against sharded reports).
type ShardedLoop struct {
	loops     []*Loop
	lookahead int64
	now       int64

	barrierFns   []func()
	globals      []globalEvent
	globalsFired uint64

	start   []chan int64
	done    chan workerResult
	workers sync.WaitGroup
	closed  bool
}

// globalEvent is a driver-level callback at an exact virtual time: scenario
// steps and other cross-shard control actions. They run between windows with
// every shard clock aligned to the event time, before any shard event at
// that instant — matching the sequential engine, where such steps are
// scheduled at run start and so carry the lowest priority at their instant.
type globalEvent struct {
	at  int64
	seq uint64
	fn  func()
}

type workerResult struct {
	shard    int
	panicked any
	stack    []byte
}

// NewShardedLoop creates a sharded engine whose clocks start at start.
func NewShardedLoop(start int64, shards int) *ShardedLoop {
	if shards < 1 {
		panic(fmt.Sprintf("sim: need at least 1 shard, got %d", shards))
	}
	sl := &ShardedLoop{
		loops:     make([]*Loop, shards),
		lookahead: int64(time.Millisecond),
		now:       start,
		start:     make([]chan int64, shards),
		done:      make(chan workerResult, shards),
	}
	for i := range sl.loops {
		sl.loops[i] = NewLoop(start)
		sl.start[i] = make(chan int64)
		sl.workers.Add(1)
		go sl.worker(i)
	}
	return sl
}

func (sl *ShardedLoop) worker(i int) {
	defer sl.workers.Done()
	loop := sl.loops[i]
	for deadline := range sl.start[i] {
		res := workerResult{shard: i}
		func() {
			defer func() {
				if r := recover(); r != nil {
					res.panicked = r
					res.stack = debug.Stack()
				}
			}()
			loop.RunUntil(deadline)
		}()
		sl.done <- res
	}
}

// Close shuts the worker goroutines down and waits for them to exit, so
// nothing keeps the engine (and every node hanging off its loops) reachable
// once the caller drops it. The loops stay readable; no further Run* calls
// are allowed.
func (sl *ShardedLoop) Close() {
	if sl.closed {
		return
	}
	sl.closed = true
	for _, ch := range sl.start {
		close(ch)
	}
	sl.workers.Wait()
}

// Shards returns the shard count.
func (sl *ShardedLoop) Shards() int { return len(sl.loops) }

// Shard returns shard i's loop; simulation objects owned by that shard
// schedule against it.
func (sl *ShardedLoop) Shard(i int) *Loop { return sl.loops[i] }

// SetLookahead sets the conservative window bound: the minimum virtual delay
// of any cross-shard interaction. Values below 1ns are clamped to 1ns (the
// engine stays correct but degenerates to one instant per window).
func (sl *ShardedLoop) SetLookahead(d time.Duration) {
	sl.lookahead = int64(d)
	if sl.lookahead < 1 {
		sl.lookahead = 1
	}
}

// OnBarrier registers fn to run single-threaded at every window barrier, in
// registration order: cross-shard message injection, metric merges.
func (sl *ShardedLoop) OnBarrier(fn func()) {
	sl.barrierFns = append(sl.barrierFns, fn)
}

// ScheduleGlobal schedules a driver-level callback at absolute virtual time
// at (clamped to now). It runs between windows with all shard clocks at
// exactly that time, before any shard event scheduled at the same instant.
// Same-time globals fire in scheduling order.
func (sl *ShardedLoop) ScheduleGlobal(at int64, fn func()) {
	if at < sl.now {
		at = sl.now
	}
	sl.globals = append(sl.globals, globalEvent{at: at, seq: uint64(len(sl.globals)), fn: fn})
}

// Now returns the barrier-aligned virtual time.
func (sl *ShardedLoop) Now() int64 { return sl.now }

// Executed returns the number of events fired across all shards, plus fired
// globals — the same count a sequential run reports, where globals are
// ordinary timers.
func (sl *ShardedLoop) Executed() uint64 {
	n := sl.globalsFired
	for _, l := range sl.loops {
		n += l.Executed()
	}
	return n
}

// Pending returns the number of scheduled shard events (globals excluded).
func (sl *ShardedLoop) Pending() int {
	n := 0
	for _, l := range sl.loops {
		n += l.Pending()
	}
	return n
}

// RunFor advances the engine by d.
func (sl *ShardedLoop) RunFor(d time.Duration) { sl.RunUntil(sl.now + int64(d)) }

// RunUntil processes events in conservative windows until the clock reaches
// deadline; shard events scheduled exactly at deadline still fire, matching
// Loop.RunUntil. Pending globals at or before deadline fire at their exact
// instants.
func (sl *ShardedLoop) RunUntil(deadline int64) {
	if sl.closed {
		panic("sim: RunUntil on a closed ShardedLoop")
	}
	for {
		gIdx := sl.nextGlobal()
		if gIdx < 0 || sl.globals[gIdx].at > deadline {
			sl.runWindows(deadline)
			return
		}
		gAt := sl.globals[gIdx].at
		// Drain everything strictly before the global's instant, align every
		// shard clock to it, fire the global (and any others at the same
		// instant), then let the shards' own events at that instant run in
		// the next windows.
		sl.runWindows(gAt - 1)
		for _, l := range sl.loops {
			l.AdvanceTo(gAt)
		}
		sl.now = gAt
		sl.fireGlobalsAt(gAt)
		sl.barrier()
	}
}

// nextGlobal returns the index of the earliest pending global (lowest
// (at, seq)), or -1.
func (sl *ShardedLoop) nextGlobal() int {
	best := -1
	for i := range sl.globals {
		if sl.globals[i].fn == nil {
			continue
		}
		if best < 0 || sl.globals[i].at < sl.globals[best].at ||
			(sl.globals[i].at == sl.globals[best].at && sl.globals[i].seq < sl.globals[best].seq) {
			best = i
		}
	}
	return best
}

func (sl *ShardedLoop) fireGlobalsAt(at int64) {
	for {
		i := sl.nextGlobal()
		if i < 0 || sl.globals[i].at != at {
			break
		}
		fn := sl.globals[i].fn
		sl.globals[i].fn = nil
		sl.globalsFired++
		fn()
	}
	// Compact once everything fired.
	if sl.nextGlobal() < 0 {
		sl.globals = sl.globals[:0]
	}
}

// runWindows advances all shards to target in conservative windows.
func (sl *ShardedLoop) runWindows(target int64) {
	for sl.now < target {
		earliest := int64(math.MaxInt64)
		for _, l := range sl.loops {
			if at, ok := l.NextEventAt(); ok && at < earliest {
				earliest = at
			}
		}
		T := target
		if earliest <= target {
			// Anything a shard does at time t ≥ earliest reaches another
			// shard strictly after t + lookahead > earliest + lookahead - 1.
			if w := earliest + sl.lookahead - 1; w < T {
				T = w
			}
			if T < earliest {
				T = earliest // lookahead-1 window floor: one instant
			}
		}
		sl.runWindow(T)
		sl.now = T
		sl.barrier()
	}
}

// runWindow executes one window: shards with work run concurrently up to T,
// idle shards advance their clock on the driver.
func (sl *ShardedLoop) runWindow(T int64) {
	dispatched := 0
	for i, l := range sl.loops {
		if at, ok := l.NextEventAt(); ok && at <= T {
			sl.start[i] <- T
			dispatched++
		} else {
			l.AdvanceTo(T)
		}
	}
	// The first failure is kept by value: a pointer to the received result
	// would move it to the heap, one allocation per window.
	var failure workerResult
	for ; dispatched > 0; dispatched-- {
		if res := <-sl.done; res.panicked != nil && failure.panicked == nil {
			failure = res
		}
	}
	if failure.panicked != nil {
		panic(fmt.Sprintf("sim: shard %d panicked: %v\n%s",
			failure.shard, failure.panicked, failure.stack))
	}
}

// barrier runs the registered hooks single-threaded between windows.
func (sl *ShardedLoop) barrier() {
	for _, fn := range sl.barrierFns {
		fn()
	}
}
