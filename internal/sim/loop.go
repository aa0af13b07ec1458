// Package sim is a deterministic discrete-event simulation kernel: a virtual
// clock, an ordered event queue, and seeded random streams.
//
// It is the substrate that replaces the paper's 1000-node hardware emulation
// testbed (§7): protocol nodes run unchanged against a virtual clock, so a
// thousand nodes running hours of protocol time execute in seconds of wall
// time, with every run exactly reproducible from its seed.
package sim

import (
	"time"
)

// Timestamps are Unix nanoseconds on the virtual clock; durations are
// time.Duration as usual.

// Timer is the handle of a cancellable event. At hands out a new one per
// call; Arm schedules under a handle its caller owns and re-arms, so a
// caller that keeps one timer per record allocates nothing per arming. The
// PostEvent fast path schedules fire-and-forget events with no handle.
type Timer struct {
	loop  *Loop
	index int // heap index, -1 when fired or stopped
}

// Stop cancels the timer; it reports whether the callback was still pending.
// The event is removed from the queue eagerly, so heavy arm-then-cancel
// traffic (block-fetch retry timers) does not grow the heap with dead
// entries.
func (t *Timer) Stop() bool {
	if t.index < 0 {
		return false
	}
	t.loop.remove(t.index)
	t.index = -1
	return true
}

// Runnable is a pre-allocated event body for PostEvent and Arm: schedulers
// with per-message or per-timer state (the network's in-flight deliveries, a
// node's timers) implement it once per object instead of allocating a
// closure per scheduling hop.
type Runnable interface {
	Run()
}

// runFunc runs a plain callback as an event body; a func value fits the
// interface word, so the conversion allocates nothing.
type runFunc func()

func (f runFunc) Run() { f() }

// event is one scheduled callback, stored by value: the (at, prio, seq)
// ordering keys live inline in the heap slice, so sift comparisons touch no
// pointers.
type event struct {
	at   int64
	prio int64 // virtual time the event was scheduled at (see eventQueue)
	seq  uint64
	r    Runnable
	t    *Timer // cancellation handle; nil for PostEvent events
}

// eventQueue is a binary min-heap of events ordered by (time, priority,
// sequence). Priority is the virtual time the event was scheduled at: on a
// single loop it is nondecreasing in sequence number, so the order is exactly
// the classic (time, sequence) FIFO — simultaneous events fire in scheduling
// order. The sharded loop relies on the extra key: a cross-shard delivery is
// re-posted into the destination shard at a window barrier, after local
// events that were scheduled later in virtual time, and carrying the original
// scheduling time as prio restores the global chronological tie-break the
// sequential engine would have used. The heap is hand-rolled rather than
// container/heap because the standard interface boxes every pushed and popped
// value into an `any`, which made event scheduling one of the top allocation
// sites of a paper-scale run.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].prio != q[j].prio {
		return q[i].prio < q[j].prio
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	if q[i].t != nil {
		q[i].t.index = i
	}
	if q[j].t != nil {
		q[j].t.index = j
	}
}

func (q eventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q eventQueue) siftDown(i int) {
	n := len(q)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			return
		}
		q.swap(i, least)
		i = least
	}
}

// Loop is the event loop. It is single-threaded: callbacks run inline on the
// goroutine calling Run, so simulation code needs no locking.
type Loop struct {
	now   int64
	queue eventQueue
	seq   uint64
	// Executed counts fired events, a cheap progress/cost measure.
	executed uint64
}

// NewLoop returns a loop whose clock starts at start (Unix nanoseconds).
func NewLoop(start int64) *Loop {
	return &Loop{now: start}
}

// Now returns the current virtual time in Unix nanoseconds.
func (l *Loop) Now() int64 { return l.now }

// Executed returns the number of events fired so far.
func (l *Loop) Executed() uint64 { return l.executed }

// Pending returns the number of scheduled events.
func (l *Loop) Pending() int { return len(l.queue) }

// At schedules fn at absolute virtual time at; times in the past fire at the
// current instant (after already-queued events for that instant). The
// returned Timer can cancel the event; callers that never cancel should
// prefer PostEvent, which skips the handle allocation.
func (l *Loop) At(at int64, fn func()) *Timer {
	t := new(Timer)
	l.Arm(t, at, runFunc(fn))
	return t
}

// Arm schedules r at absolute virtual time at under the caller's handle t,
// as At does under a new one. A handle is re-armed only once its last event
// has fired or been stopped: arming a pending handle panics, since the
// handle names one queued event.
func (l *Loop) Arm(t *Timer, at int64, r Runnable) {
	if t.loop != nil && t.index >= 0 {
		panic("sim: Arm of a pending timer")
	}
	if at < l.now {
		at = l.now
	}
	t.loop, t.index = l, len(l.queue)
	l.queue = append(l.queue, event{at: at, prio: l.now, seq: l.seq, r: r, t: t})
	l.seq++
	l.queue.siftUp(len(l.queue) - 1)
}

// PostEvent schedules a Runnable with no cancellation handle and no closure
// allocation; the same Runnable may be re-posted from inside its own Run.
func (l *Loop) PostEvent(at int64, r Runnable) {
	l.PostEventPrio(at, l.now, r)
}

// PostEventPrio is PostEvent with an explicit scheduling-time priority. The
// sharded engine uses it when merging a cross-shard delivery into this loop
// at a window barrier: prio carries the virtual time the message was sent at,
// so same-instant arrivals keep the chronological order the sequential engine
// would have produced. Ordinary callers should use PostEvent.
func (l *Loop) PostEventPrio(at, prio int64, r Runnable) {
	if at < l.now {
		at = l.now
	}
	l.queue = append(l.queue, event{at: at, prio: prio, seq: l.seq, r: r})
	l.seq++
	l.queue.siftUp(len(l.queue) - 1)
}

// pop removes and returns the earliest event; the queue must be non-empty.
func (l *Loop) pop() event {
	q := l.queue
	ev := q[0]
	last := len(q) - 1
	q.swap(0, last)
	q[last] = event{}
	l.queue = q[:last]
	l.queue.siftDown(0)
	if ev.t != nil {
		ev.t.index = -1
	}
	return ev
}

// remove deletes the event at heap index i (Timer.Stop's eager removal).
func (l *Loop) remove(i int) {
	q := l.queue
	last := len(q) - 1
	if i != last {
		q.swap(i, last)
	}
	q[last] = event{}
	l.queue = q[:last]
	if i != last {
		l.queue.siftDown(i)
		l.queue.siftUp(i)
	}
}

// After schedules fn d from now.
func (l *Loop) After(d time.Duration, fn func()) *Timer {
	return l.At(l.now+int64(d), fn)
}

// NextEventAt returns the virtual time of the earliest scheduled event; ok is
// false when the queue is empty. The sharded driver uses it to size windows.
func (l *Loop) NextEventAt() (at int64, ok bool) {
	if len(l.queue) == 0 {
		return 0, false
	}
	return l.queue[0].at, true
}

// AdvanceTo moves the clock forward to t without firing anything. The caller
// must have established that no event is scheduled before t (the sharded
// driver advances idle shards across a window this way); violating that
// invariant panics rather than silently firing events late.
func (l *Loop) AdvanceTo(t int64) {
	if len(l.queue) > 0 && l.queue[0].at < t {
		panic("sim: AdvanceTo would skip a scheduled event")
	}
	if l.now < t {
		l.now = t
	}
}

// Step fires the next event; it reports false when the queue is empty.
func (l *Loop) Step() bool {
	if len(l.queue) == 0 {
		return false
	}
	ev := l.pop()
	l.now = ev.at
	l.executed++
	ev.r.Run()
	return true
}

// RunUntil processes events until the virtual clock would pass deadline or
// the queue empties. Events scheduled exactly at deadline still fire. The
// clock ends at deadline if it was reached, else at the last event.
func (l *Loop) RunUntil(deadline int64) {
	for len(l.queue) > 0 && l.queue[0].at <= deadline {
		l.Step()
	}
	if l.now < deadline {
		l.now = deadline
	}
}

// RunFor advances the clock by d.
func (l *Loop) RunFor(d time.Duration) { l.RunUntil(l.now + int64(d)) }

// Drain runs until the queue is empty (or maxEvents fire, as a runaway
// guard; pass 0 for no limit).
func (l *Loop) Drain(maxEvents uint64) {
	fired := uint64(0)
	for l.Step() {
		fired++
		if maxEvents > 0 && fired >= maxEvents {
			return
		}
	}
}
