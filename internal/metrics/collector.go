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
	"sync"

	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
)

// accept is one (node, time) receipt of a block.
type accept struct {
	Node int32
	At   int64
}

// tipAt is one tip change on a node.
type tipAt struct {
	At  int64
	Idx int32 // block index of the new tip
}

// blockRecord is the registry entry for one generated block.
type blockRecord struct {
	Info      node.BlockInfo
	Idx       int32
	ParentIdx int32 // -1 for genesis
	Height    int32 // blocks from genesis
	PowHeight int32 // PoW-bearing blocks from genesis (chain weight proxy)
	Accepts   []accept
}

// Collector gathers run events. It is safe for concurrent use (the live TCP
// runtime delivers from multiple goroutines; the simulator from one).
type Collector struct {
	mu     sync.Mutex
	blocks []*blockRecord
	index  map[node.BlockID]int32
	tips   map[int32][]tipAt
	nodes  int32 // max node id seen + 1
	start  int64 // virtual time of collector creation
	// kindCount tracks generated blocks per kind (genesis excluded) so the
	// experiment stop rule polls in O(1) instead of scanning the registry.
	kindCount map[types.BlockKind]int
}

// NewCollector creates a collector. The genesis block must be registered
// before any node events arrive so children can resolve their parent.
func NewCollector(genesis types.Block, startTime int64) *Collector {
	c := &Collector{
		index:     make(map[node.BlockID]int32),
		tips:      make(map[int32][]tipAt),
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
	if rec.Accepts == nil {
		// Every node accepts a block at most once: size the log for all of
		// them up front instead of growing it by doubling.
		rec.Accepts = make([]accept, 0, c.nodes)
	}
	rec.Accepts = append(rec.Accepts, accept{Node: int32(nodeID), At: at})
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
	c.tips[int32(nodeID)] = append(c.tips[int32(nodeID)], tipAt{At: at, Idx: idx})
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
