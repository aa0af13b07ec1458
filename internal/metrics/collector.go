// Package metrics implements the paper's novel Nakamoto-consensus metrics
// (§6): (ε, δ) consensus delay, fairness, mining power utilization,
// subjective time to prune, and time to win — plus the supporting
// measurements the evaluation uses (transaction frequency, fork rate, block
// propagation percentiles for Figure 7).
//
// A Collector implements the node.Recorder interface structurally and
// receives events from every node during a run; Analyze computes the §6
// definitions offline from the logs, mirroring the paper's
// instrument-then-analyze pipeline.
package metrics

import (
	"math"
	"sync"

	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
)

// tipRec is one entry of the collector's tip log: a tip change on Node.
type tipRec struct {
	At   int64
	Node int32
	Idx  int32
}

// tipChunkLen is how many tip changes one chunk of the log holds: with its
// time span and link, a chunk fills a 32 KiB allocation size class.
const tipChunkLen = 2046

// tipChunk is one fixed-size chunk of the tip log. lo and hi bound the
// times of its entries.
type tipChunk struct {
	recs   [tipChunkLen]tipRec
	lo, hi int64
	next   *tipChunk
}

// notAccepted marks, in a block's acceptance times, a node that has not
// accepted it.
const notAccepted = math.MinInt64

// blockRecord is the registry entry for one generated block.
type blockRecord struct {
	Info      node.BlockInfo
	Idx       int32
	ParentIdx int32 // -1 for genesis
	Height    int32 // blocks from genesis
	PowHeight int32 // PoW-bearing blocks from genesis (chain weight proxy)
	// accepted is indexed by node id: when the node accepted the block,
	// or notAccepted. Every node accepts a block at most once, so it is
	// sized once, at the first acceptance, for every node seen by then.
	accepted []int64
}

// Collector gathers run events. It is safe for concurrent use (the live TCP
// runtime delivers from multiple goroutines; the simulator from one).
//
// Per block it keeps one record, in generation order, with an 8-byte
// acceptance time per node; per tip change, one 16-byte entry of the tip
// log. Both are written in place, so nothing is copied as a run grows, and
// Analyze reads them where they are.
type Collector struct {
	mu     sync.Mutex
	blocks []*blockRecord
	index  map[node.BlockID]int32
	// The tip log: every tip change in arrival order, in chunks linked
	// from tipHead, so it grows without copying. tipTail holds tipN
	// entries; every other chunk is full.
	tipHead, tipTail *tipChunk
	tipN             int
	nodes            int32 // max node id seen + 1
	start            int64 // virtual time of collector creation
	// kindCount tracks generated blocks per kind (genesis excluded) so the
	// experiment stop rule polls in O(1) instead of scanning the registry.
	kindCount map[types.BlockKind]int
}

// NewCollector creates a collector. The genesis block must be registered
// before any node events arrive so children can resolve their parent.
func NewCollector(genesis types.Block, startTime int64) *Collector {
	c := &Collector{
		index:     make(map[node.BlockID]int32),
		start:     startTime,
		kindCount: make(map[types.BlockKind]int),
	}
	rec := &blockRecord{
		Info: node.BlockInfo{
			ID:      genesis.Hash(),
			Kind:    genesis.Kind(),
			Time:    genesis.Time(),
			Size:    genesis.WireSize(),
			Work:    true,
			MinerID: -1,
		},
		Idx:       0,
		ParentIdx: -1,
		Height:    0,
		PowHeight: 0,
	}
	c.blocks = append(c.blocks, rec)
	c.index[rec.Info.ID] = 0
	return c
}

// BlockGenerated implements node.Recorder.
func (c *Collector) BlockGenerated(nodeID int, at int64, info node.BlockInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteNode(nodeID)
	if _, dup := c.index[info.ID]; dup {
		return
	}
	parentIdx, ok := c.index[info.Parent]
	if !ok {
		// A block generated on an unknown parent: only possible if the
		// registry missed events; record detached at height 0.
		parentIdx = -1
	}
	rec := &blockRecord{
		Info:      info,
		Idx:       int32(len(c.blocks)),
		ParentIdx: parentIdx,
	}
	if parentIdx >= 0 {
		p := c.blocks[parentIdx]
		rec.Height = p.Height + 1
		rec.PowHeight = p.PowHeight
	}
	if info.Work {
		rec.PowHeight++
	}
	c.index[info.ID] = rec.Idx
	c.blocks = append(c.blocks, rec)
	c.kindCount[info.Kind]++
}

// BlockAccepted implements node.Recorder.
func (c *Collector) BlockAccepted(nodeID int, at int64, blockID node.BlockID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteNode(nodeID)
	idx, ok := c.index[blockID]
	if !ok {
		return // acceptance raced generation registration; drop
	}
	rec := c.blocks[idx]
	if nodeID >= len(rec.accepted) {
		// Early in a run a node may report before others have: grow to
		// every node seen, at least doubling.
		grown := make([]int64, max(int(c.nodes), 2*len(rec.accepted)))
		for i := copy(grown, rec.accepted); i < len(grown); i++ {
			grown[i] = notAccepted
		}
		rec.accepted = grown
	}
	if rec.accepted[nodeID] == notAccepted {
		rec.accepted[nodeID] = at
	}
}

// TipChanged implements node.Recorder. It keeps only the new tip.
func (c *Collector) TipChanged(nodeID int, at int64, tip node.BlockID, _, _ []node.BlockID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteNode(nodeID)
	idx, ok := c.index[tip]
	if !ok {
		return
	}
	if c.tipTail == nil || c.tipN == tipChunkLen {
		ch := &tipChunk{lo: at, hi: at}
		if c.tipTail == nil {
			c.tipHead = ch
		} else {
			c.tipTail.next = ch
		}
		c.tipTail, c.tipN = ch, 0
	}
	ch := c.tipTail
	ch.recs[c.tipN] = tipRec{At: at, Node: int32(nodeID), Idx: idx}
	ch.lo, ch.hi = min(ch.lo, at), max(ch.hi, at)
	c.tipN++
}

func (c *Collector) noteNode(nodeID int) {
	if int32(nodeID) >= c.nodes {
		c.nodes = int32(nodeID) + 1
	}
}

// BlockCount returns the number of registered blocks including genesis.
func (c *Collector) BlockCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.blocks)
}

// CountKind returns how many blocks of the given kind have been generated
// (genesis excluded). The experiment harness uses it for its stop rule: the
// paper runs each execution for 50–100 Bitcoin blocks or Bitcoin-NG
// microblocks (§8 "Metrics").
func (c *Collector) CountKind(kind types.BlockKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.kindCount[kind]
}
