package metrics

import (
	"cmp"
	"slices"

	"bitcoinng/internal/node"
)

// ShardedCollector adapts a Collector to the sharded event engine without
// giving up deterministic analysis. The Collector itself is mutex-safe, but
// interleaving recordings from concurrently running shards would make
// registry order (and with it block indices) depend on goroutine scheduling.
// Instead each shard appends its events to a private buffer — no locks, no
// cross-shard traffic — and Flush, called at every window barrier while the
// shards are quiescent, merges the buffers into the Collector ordered by
// (event time, shard, shard-local order): the same order the sequential
// engine would have recorded them in, up to exact virtual-time ties between
// shards (see sim.ShardedLoop on why those are negligible).
type ShardedCollector struct {
	c     *Collector
	bufs  [][]recEvent
	merge []recEvent // Flush's retained scratch, cleared after use
}

type recKind uint8

const (
	recGenerated recKind = iota
	recAccepted
	recTipChanged
)

// recEvent is one buffered Recorder call.
type recEvent struct {
	kind  recKind
	node  int
	at    int64
	shard int32
	info  node.BlockInfo // recGenerated
	id    node.BlockID   // recAccepted, recTipChanged (the new tip)
	conn  []node.BlockID // recTipChanged
	disc  []node.BlockID // recTipChanged
}

// NewSharded wraps c for a run on the given number of shards.
func NewSharded(c *Collector, shards int) *ShardedCollector {
	return &ShardedCollector{c: c, bufs: make([][]recEvent, shards)}
}

// Collector returns the wrapped collector (for Analyze and CountKind; call
// only after a Flush, while shards are quiescent).
func (s *ShardedCollector) Collector() *Collector { return s.c }

// Shard returns the buffering recorder for shard i; it must only be used
// from that shard's goroutine.
func (s *ShardedCollector) Shard(i int) node.Recorder {
	return &shardRecorder{owner: s, shard: i}
}

// Flush merges all buffered events into the collector in deterministic
// order. Call at window barriers and before reading CountKind or Analyze.
func (s *ShardedCollector) Flush() {
	total := 0
	for i := range s.bufs {
		total += len(s.bufs[i])
	}
	if total == 0 {
		return
	}
	all := s.merge[:0]
	for i := range s.bufs {
		all = append(all, s.bufs[i]...)
		s.bufs[i] = s.bufs[i][:0]
	}
	// Stable sort by time only: concatenation order supplies the
	// (shard, local-order) tie-break, and per-shard buffers are already
	// time-sorted because each shard's clock is monotonic.
	slices.SortStableFunc(all, func(a, b recEvent) int { return cmp.Compare(a.at, b.at) })
	for i := range all {
		ev := &all[i]
		switch ev.kind {
		case recGenerated:
			s.c.BlockGenerated(ev.node, ev.at, ev.info)
		case recAccepted:
			s.c.BlockAccepted(ev.node, ev.at, ev.id)
		case recTipChanged:
			s.c.TipChanged(ev.node, ev.at, ev.id, ev.conn, ev.disc)
		}
	}
	clear(all)
	s.merge = all[:0]
}

// shardRecorder implements node.Recorder by appending to its shard's buffer.
type shardRecorder struct {
	owner *ShardedCollector
	shard int
}

func (r *shardRecorder) BlockGenerated(nodeID int, at int64, info node.BlockInfo) {
	r.owner.bufs[r.shard] = append(r.owner.bufs[r.shard], recEvent{
		kind: recGenerated, node: nodeID, at: at, shard: int32(r.shard), info: info,
	})
}

func (r *shardRecorder) BlockAccepted(nodeID int, at int64, blockID node.BlockID) {
	r.owner.bufs[r.shard] = append(r.owner.bufs[r.shard], recEvent{
		kind: recAccepted, node: nodeID, at: at, shard: int32(r.shard), id: blockID,
	})
}

func (r *shardRecorder) TipChanged(nodeID int, at int64, tip node.BlockID, connected, disconnected []node.BlockID) {
	r.owner.bufs[r.shard] = append(r.owner.bufs[r.shard], recEvent{
		kind: recTipChanged, node: nodeID, at: at, shard: int32(r.shard),
		id: tip, conn: connected, disc: disconnected,
	})
}
