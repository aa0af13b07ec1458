package metrics

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
)

const sec = int64(time.Second)

// builder assembles synthetic runs for metric tests.
type builder struct {
	c       *Collector
	genesis types.Block
	nextID  byte
}

func newBuilder() *builder {
	g := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	return &builder{c: NewCollector(g, 0), genesis: g}
}

func (b *builder) id() crypto.Hash {
	b.nextID++
	return crypto.HashBytes([]byte{b.nextID})
}

// gen registers a block generated by miner at time t on parent.
func (b *builder) gen(miner int, t int64, parent crypto.Hash, kind types.BlockKind, txs int) crypto.Hash {
	h := b.id()
	b.c.BlockGenerated(miner, t, node.BlockInfo{
		ID:      h,
		Parent:  parent,
		Kind:    kind,
		Time:    t,
		Size:    1000,
		Payload: txs * 500,
		TxCount: txs,
		Work:    kind != types.KindMicro,
		MinerID: miner,
	})
	// The generator accepts its own block immediately.
	b.c.BlockAccepted(miner, t, h)
	return h
}

// accept records node receiving block at time t.
func (b *builder) accept(nodeID int, t int64, h crypto.Hash) {
	b.c.BlockAccepted(nodeID, t, h)
}

// tip records node adopting h as tip at time t.
func (b *builder) tip(nodeID int, t int64, h crypto.Hash) {
	b.c.TipChanged(nodeID, t, h, nil, nil)
}

// linearRun builds a 3-node run: miner 0 generates a block every 10s, the
// other two nodes receive and adopt it 1s and 2s later.
func linearRun(blocks int) (*builder, int64) {
	b := newBuilder()
	parent := b.genesis.Hash()
	var t int64
	for i := 0; i < blocks; i++ {
		t = int64(i+1) * 10 * sec
		h := b.gen(0, t, parent, types.KindPow, 5)
		b.tip(0, t, h)
		b.accept(1, t+1*sec, h)
		b.tip(1, t+1*sec, h)
		b.accept(2, t+2*sec, h)
		b.tip(2, t+2*sec, h)
		parent = h
	}
	return b, t + 5*sec
}

func TestLinearChainMetrics(t *testing.T) {
	b, end := linearRun(10)
	r := b.c.Analyze(DefaultAnalyzeOptions(end))

	if r.Blocks != 10 || r.MainChainBlocks != 10 || r.PowBlocks != 10 {
		t.Errorf("composition: %+v", r)
	}
	if r.MiningPowerUtilization != 1.0 {
		t.Errorf("MPU = %v, want 1", r.MiningPowerUtilization)
	}
	if r.TimeToPrune != 0 {
		t.Errorf("time to prune = %v, want 0 (no forks)", r.TimeToPrune)
	}
	if r.TimeToWin != 0 {
		t.Errorf("time to win = %v, want 0", r.TimeToWin)
	}
	// 90% of 3 nodes = all 3; the slowest adopts 2s after generation, so
	// the point delay hovers around 2s plus grid effects; it must be well
	// below the 10s block interval.
	if r.ConsensusDelay <= 0 || r.ConsensusDelay > 10*time.Second {
		t.Errorf("consensus delay = %v", r.ConsensusDelay)
	}
	// 50 txs over the steady-state window (first block at t=10s to end).
	wantFreq := 50.0 / (float64(end-10*sec) / 1e9)
	if diff := r.TxFrequency - wantFreq; diff > 0.01 || diff < -0.01 {
		t.Errorf("tx frequency = %v, want %v", r.TxFrequency, wantFreq)
	}
}

func TestFairnessPenalizesLargestMiner(t *testing.T) {
	// Miner 0 (largest) generates 4 main blocks and prunes the only block
	// of miner 1: miner 1 is underrepresented.
	b := newBuilder()
	g := b.genesis.Hash()
	m1 := b.gen(0, 10*sec, g, types.KindPow, 0)
	b.tip(0, 10*sec, m1)
	// Miner 1's competing block, pruned.
	b.gen(1, 11*sec, g, types.KindPow, 0)
	m2 := b.gen(0, 20*sec, m1, types.KindPow, 0)
	b.tip(0, 20*sec, m2)
	m3 := b.gen(0, 30*sec, m2, types.KindPow, 0)
	b.tip(0, 30*sec, m3)
	m4 := b.gen(0, 40*sec, m3, types.KindPow, 0)
	b.tip(0, 40*sec, m4)

	r := b.c.Analyze(DefaultAnalyzeOptions(50 * sec))
	// Main chain: 0/4 blocks by others; generated: 1/5 by others.
	// Fairness = (0/4) / (1/5) = 0.
	if r.Fairness != 0 {
		t.Errorf("fairness = %v, want 0", r.Fairness)
	}
	if r.MiningPowerUtilization != 0.8 {
		t.Errorf("MPU = %v, want 0.8", r.MiningPowerUtilization)
	}
	if r.ForksPerPowBlock != 0.25 {
		t.Errorf("forks/block = %v, want 0.25", r.ForksPerPowBlock)
	}
}

func TestFairnessBalanced(t *testing.T) {
	// Two miners alternate main-chain blocks: fairness 1.
	b := newBuilder()
	parent := b.genesis.Hash()
	for i := 0; i < 6; i++ {
		h := b.gen(i%2, int64(i+1)*10*sec, parent, types.KindPow, 0)
		b.tip(i%2, int64(i+1)*10*sec, h)
		parent = h
	}
	r := b.c.Analyze(DefaultAnalyzeOptions(70 * sec))
	if r.Fairness != 1 {
		t.Errorf("fairness = %v, want 1", r.Fairness)
	}
}

func TestTimeToPruneFigure5(t *testing.T) {
	// Figure 5 shape: node 2 receives branch block 2' at t=20, then the
	// main chain outweighs the branch when block 3 arrives at t=35:
	// time to prune = 15s.
	b := newBuilder()
	g := b.genesis.Hash()
	b1 := b.gen(0, 10*sec, g, types.KindPow, 0)
	b.tip(0, 10*sec, b1)
	b.accept(2, 11*sec, b1)
	b.tip(2, 11*sec, b1)

	// Branch block 2' on b1 (miner 1).
	alt := b.gen(1, 19*sec, b1, types.KindPow, 0)
	b.accept(2, 20*sec, alt)
	// Main blocks 2 and 3.
	b2 := b.gen(0, 21*sec, b1, types.KindPow, 0)
	b.tip(0, 21*sec, b2)
	b.accept(2, 22*sec, b2)
	b3 := b.gen(0, 30*sec, b2, types.KindPow, 0)
	b.tip(0, 30*sec, b3)
	b.accept(2, 35*sec, b3)
	b.tip(2, 35*sec, b3)

	r := b.c.Analyze(DefaultAnalyzeOptions(40 * sec))
	// Node 2: first branch receipt t=20, outweighing main block (weight 3
	// > branch weight 2) received t=35 → 15s. Node 1 (generator of alt)
	// never received b3, so only nodes 1... generator accepts its own at
	// 19s; it also never sees b3 → no sample. Node 0 never accepted alt.
	if r.TimeToPrune != 15*time.Second {
		t.Errorf("time to prune = %v, want 15s", r.TimeToPrune)
	}
}

func TestTimeToWin(t *testing.T) {
	// Main block 2 at t=20; a competing branch block generated at t=28
	// (not its descendant): time to win for block 2 = 8s.
	b := newBuilder()
	g := b.genesis.Hash()
	b1 := b.gen(0, 10*sec, g, types.KindPow, 0)
	b.tip(0, 10*sec, b1)
	b2 := b.gen(0, 20*sec, b1, types.KindPow, 0)
	b.tip(0, 20*sec, b2)
	b.gen(1, 28*sec, b1, types.KindPow, 0) // competitor off b1
	b3 := b.gen(0, 40*sec, b2, types.KindPow, 0)
	b.tip(0, 40*sec, b3)

	r := b.c.Analyze(DefaultAnalyzeOptions(50 * sec))
	// Samples: b1: competitor forks at genesis? No — competitor's fork
	// point is b1 (height 1): it competes with blocks deeper than b1,
	// i.e. b2 (ttw 8s) and b3 (gen 40 > 28 → 0). b1 itself: no
	// competitors fork below it → 0. 90th percentile of {0, 8s, 0} ≈ 8s.
	want := 8 * time.Second
	got := r.TimeToWin
	if got < want*8/10 || got > want {
		t.Errorf("time to win = %v, want ≈ %v", got, want)
	}
}

func TestMicroblocksCarryNoWeight(t *testing.T) {
	// A key block followed by microblocks, then a pruned microblock fork:
	// MPU stays 1.0 because microblocks carry no work (§8 "Metrics").
	b := newBuilder()
	g := b.genesis.Hash()
	k1 := b.gen(0, 10*sec, g, types.KindKey, 0)
	b.tip(0, 10*sec, k1)
	m1 := b.gen(0, 15*sec, k1, types.KindMicro, 10)
	b.tip(0, 15*sec, m1)
	m2 := b.gen(0, 20*sec, m1, types.KindMicro, 10)
	b.tip(0, 20*sec, m2)
	// New leader's key block extends m1: m2 gets pruned (Figure 2).
	k2 := b.gen(1, 21*sec, m1, types.KindKey, 0)
	b.tip(0, 22*sec, k2)
	b.tip(1, 21*sec, k2)

	r := b.c.Analyze(DefaultAnalyzeOptions(30 * sec))
	if r.MiningPowerUtilization != 1.0 {
		t.Errorf("MPU = %v, want 1.0 — microblock forks must not count", r.MiningPowerUtilization)
	}
	if r.PowBlocks != 2 || r.MainPowBlocks != 2 {
		t.Errorf("pow blocks %d/%d", r.MainPowBlocks, r.PowBlocks)
	}
	// Main chain carries the 10 txs of m1 but not m2's.
	if r.MainChainBlocks != 3 { // k1, m1, k2
		t.Errorf("main blocks = %d, want 3", r.MainChainBlocks)
	}
}

func TestPropagationPercentiles(t *testing.T) {
	// 4 nodes; each block reaches nodes at +1s, +2s, +3s after generation.
	b := newBuilder()
	parent := b.genesis.Hash()
	for i := 0; i < 5; i++ {
		t0 := int64(i+1) * 10 * sec
		h := b.gen(0, t0, parent, types.KindPow, 0)
		b.accept(1, t0+1*sec, h)
		b.accept(2, t0+2*sec, h)
		b.accept(3, t0+3*sec, h)
		b.tip(0, t0, h)
		parent = h
	}
	r := b.c.Analyze(DefaultAnalyzeOptions(60 * sec))
	// n=4: 25% → 1st accept (the generator at +0), 50% → 2nd (+1s),
	// 75% → 3rd (+2s).
	if r.PropagationP25 != 0 {
		t.Errorf("P25 = %v, want 0", r.PropagationP25)
	}
	if r.PropagationP50 != 1*time.Second {
		t.Errorf("P50 = %v, want 1s", r.PropagationP50)
	}
	if r.PropagationP75 != 2*time.Second {
		t.Errorf("P75 = %v, want 2s", r.PropagationP75)
	}
}

func TestConsensusDelayDivergence(t *testing.T) {
	// Two halves of a 4-node network track different chains for most of
	// the run; with ε=0.9 (needs all 4 within rounding), agreement only
	// reaches back to genesis: consensus delay grows with t.
	b := newBuilder()
	g := b.genesis.Hash()
	a1 := b.gen(0, 10*sec, g, types.KindPow, 0)
	b.tip(0, 10*sec, a1)
	b.accept(1, 11*sec, a1)
	b.tip(1, 11*sec, a1)
	b1 := b.gen(2, 10*sec, g, types.KindPow, 0)
	b.tip(2, 10*sec, b1)
	b.accept(3, 11*sec, b1)
	b.tip(3, 11*sec, b1)

	r := b.c.Analyze(DefaultAnalyzeOptions(100 * sec))
	// At the last sample (t=100s), the freshest common prefix is genesis
	// (t=0) — the 90th percentile point delay is near 100s.
	if r.ConsensusDelay < 80*time.Second {
		t.Errorf("consensus delay = %v, want close to the full run", r.ConsensusDelay)
	}
}

func TestCollectorIgnoresUnknownEvents(t *testing.T) {
	b := newBuilder()
	ghost := crypto.HashBytes([]byte("never generated"))
	b.c.BlockAccepted(1, 10, ghost)
	b.c.TipChanged(1, 10, ghost, nil, nil)
	r := b.c.Analyze(DefaultAnalyzeOptions(20))
	if r.Blocks != 0 {
		t.Errorf("phantom events created blocks: %+v", r)
	}
}

func TestBlockCount(t *testing.T) {
	b := newBuilder()
	if b.c.BlockCount() != 1 {
		t.Errorf("count = %d, want 1 (genesis)", b.c.BlockCount())
	}
	b.gen(0, 10*sec, b.genesis.Hash(), types.KindPow, 0)
	if b.c.BlockCount() != 2 {
		t.Errorf("count = %d", b.c.BlockCount())
	}
}

// TestTipLogAllocatesOncePerChunk pins Collector.TipChanged at one allocation
// per chunk of the tip log: the log grows without copying what it holds.
func TestTipLogAllocatesOncePerChunk(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a quiet Mallocs counter, as testing.AllocsPerRun arranges
	b := newBuilder()
	h := b.gen(0, sec, b.genesis.Hash(), types.KindPow, 0)
	const calls = 3*tipChunkLen + 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range calls {
		b.c.TipChanged(i%5, int64(i), h, nil, nil)
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 4 {
		t.Errorf("%d tip changes allocated %d objects, want 4 (one per chunk)", calls, got)
	}
}

// TestAcceptancesAllocateOncePerBlock pins Collector.BlockAccepted at one
// allocation per block, its first acceptance: the block's acceptance times
// are sized then for every node seen, and each later acceptance, and every
// tip change within a chunk, writes in place.
func TestAcceptancesAllocateOncePerBlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a quiet Mallocs counter, as testing.AllocsPerRun arranges
	const nodes, blocks = 1000, 4
	b := newBuilder()
	b.tip(nodes-1, 0, b.genesis.Hash()) // every node is seen
	ids := []crypto.Hash{b.genesis.Hash()}
	for i := range blocks {
		ids = append(ids, b.gen(0, int64(i+1)*sec, ids[i], types.KindPow, 0))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, h := range ids[1:] {
		for nd := 1; nd < nodes; nd++ {
			b.accept(nd, 5*sec, h)
			b.tip(nd, 5*sec, h)
		}
	}
	runtime.ReadMemStats(&after)
	// The generator's acceptance allocated each block's times already; the
	// tip log's first chunk holds the first tip change.
	logged := 1 + blocks*(nodes-1)
	if got, want := after.Mallocs-before.Mallocs, uint64((logged-1)/tipChunkLen); got != want {
		t.Errorf("%d acceptances and tip changes allocated %d objects, want %d (tip-log chunks)", blocks*(nodes-1), got, want)
	}
}

// TestTipsAtReadLatestChange reads every node's tip, window by ascending
// window, from a tip log that spans chunks, with nodes interleaved and times
// out of order, and requires at each probe time the node's latest change at
// or before it, the later entry on a tie, and genesis before any: what a
// sorted per-node timeline gives.
func TestTipsAtReadLatestChange(t *testing.T) {
	b := newBuilder()
	blocks := []crypto.Hash{b.genesis.Hash()}
	for i := range 3 {
		blocks = append(blocks, b.gen(0, int64(i+1)*sec, blocks[len(blocks)-1], types.KindPow, 0))
	}
	type change struct {
		at  int64
		idx int32
	}
	const nodes = 7
	logged := make([][]change, nodes)
	for i := range 2*tipChunkLen + 100 {
		nodeID := (i * 3) % nodes
		at := int64((i * 7919) % 1000)
		idx := int32(1 + i%3)
		b.tip(nodeID, at, blocks[idx])
		logged[nodeID] = append(logged[nodeID], change{at, idx})
	}
	tips, tipTime := make([]int32, nodes), make([]int64, nodes)
	for i := range tipTime {
		tipTime[i] = math.MinInt64
	}
	prev := int64(math.MinInt64)
	for _, probe := range []int64{-1, 0, 1, 250, 500, 998, 999, 5000} {
		b.c.tipsAt(prev, probe, tips, tipTime)
		prev = probe
		for nd, changes := range logged {
			sorted := slices.Clone(changes)
			slices.SortStableFunc(sorted, func(x, y change) int { return cmp.Compare(x.at, y.at) })
			want := int32(0)
			for _, ch := range sorted {
				if ch.at <= probe {
					want = ch.idx
				}
			}
			if tips[nd] != want {
				t.Errorf("node %d at %d: tip %d, want %d", nd, probe, tips[nd], want)
			}
		}
	}
}
