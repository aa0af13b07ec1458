package harness

import (
	"time"

	"bitcoinng/internal/sim"
	"bitcoinng/internal/simnet"
)

// engine abstracts the event substrate a fleet executes on: the classic
// single-threaded loop, or the sharded windowed engine. Either way the
// driver only observes the simulation at quiescent points (between runFor
// slices), where recorder buffers and outboxes have been flushed.
type engine interface {
	// shards is the number of event loops; shardOf maps a node to the one
	// that owns it. Envs, miners, and timers of a node schedule against
	// loop(shardOf(node)).
	shards() int
	shardOf(node int) int
	loop(shard int) *sim.Loop
	now() int64
	executed() uint64
	runFor(d time.Duration)
	// scheduleAt registers a driver-level callback at an absolute virtual
	// time: scenario steps and invariant ticks, which may touch any node or
	// global network state. It fires with all shards aligned at that instant.
	scheduleAt(at int64, fn func())
	// onBarrier registers fn to run at every window barrier, after the
	// outboxes flush; the sequential engine has no barriers and never calls it.
	onBarrier(fn func())
	close()
}

// seqEngine is the classic engine: one loop, driver callbacks are ordinary
// timers.
type seqEngine struct{ l *sim.Loop }

func (e seqEngine) shards() int                    { return 1 }
func (e seqEngine) shardOf(int) int                { return 0 }
func (e seqEngine) loop(int) *sim.Loop             { return e.l }
func (e seqEngine) now() int64                     { return e.l.Now() }
func (e seqEngine) executed() uint64               { return e.l.Executed() }
func (e seqEngine) runFor(d time.Duration)         { e.l.RunFor(d) }
func (e seqEngine) scheduleAt(at int64, fn func()) { e.l.At(at, fn) }
func (e seqEngine) onBarrier(func())               {}
func (e seqEngine) close()                         {}

// shardEngine wraps sim.ShardedLoop: nodes are split into contiguous index
// ranges, cross-shard deliveries and recorder buffers flush at every window
// barrier, and driver callbacks run as global events (re-deriving the
// lookahead afterwards, in case they rescaled latencies).
type shardEngine struct {
	sl    *sim.ShardedLoop
	nodes int
	net   *simnet.Network
}

func (e *shardEngine) shards() int              { return e.sl.Shards() }
func (e *shardEngine) shardOf(node int) int     { return node * e.sl.Shards() / e.nodes }
func (e *shardEngine) loop(shard int) *sim.Loop { return e.sl.Shard(shard) }
func (e *shardEngine) now() int64               { return e.sl.Now() }
func (e *shardEngine) executed() uint64         { return e.sl.Executed() }
func (e *shardEngine) runFor(d time.Duration)   { e.sl.RunFor(d) }
func (e *shardEngine) onBarrier(fn func())      { e.sl.OnBarrier(fn) }
func (e *shardEngine) close()                   { e.sl.Close() }

func (e *shardEngine) scheduleAt(at int64, fn func()) {
	e.sl.ScheduleGlobal(at, func() {
		fn()
		if la := e.net.MinCrossShardLatency(); la > 0 {
			e.sl.SetLookahead(la)
		}
	})
}

// newEngine builds the network model on the requested number of event-loop
// shards with the virtual clock at start. One shard — or a degenerate
// topology whose zero-latency cross-shard links leave the windowed engine no
// lookahead to exploit — runs sequential.
func newEngine(cfg simnet.Config, shards int, start int64) (engine, *simnet.Network) {
	if shards > 1 {
		sl := sim.NewShardedLoop(start, shards)
		e := &shardEngine{sl: sl, nodes: cfg.Nodes}
		loops := make([]*sim.Loop, shards)
		for i := range loops {
			loops[i] = sl.Shard(i)
		}
		shardOf := make([]int, cfg.Nodes)
		for i := range shardOf {
			shardOf[i] = e.shardOf(i)
		}
		e.net = simnet.New(loops[0], cfg)
		e.net.Shard(loops, shardOf)
		if la := e.net.MinCrossShardLatency(); la > 0 {
			sl.SetLookahead(la)
			sl.OnBarrier(e.net.FlushOutboxes)
			return e, e.net
		}
		sl.Close()
	}
	l := sim.NewLoop(start)
	return seqEngine{l}, simnet.New(l, cfg)
}
