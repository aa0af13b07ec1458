package metrics

import (
	"math"
	"sort"
	"time"

	"bitcoinng/internal/stats"
)

// AnalyzeOptions tunes the §6 metric computation.
type AnalyzeOptions struct {
	// Epsilon and Delta select the (ε, δ) consensus delay; the paper
	// reports (90%, 90%) (§8 "Metrics").
	Epsilon float64
	Delta   float64
	// Percentile for time-to-prune and time-to-win; the paper uses 0.90.
	Percentile float64
	// LargestMiner is the node holding the most mining power; fairness is
	// computed against it (§6 "Fairness").
	LargestMiner int
	// EndTime closes the measurement window (Unix nanoseconds).
	EndTime int64
	// SampleEvery spaces the consensus-delay sample grid; zero defaults
	// to 1/100th of the run.
	SampleEvery time.Duration
}

// DefaultAnalyzeOptions mirrors the paper's reporting choices.
func DefaultAnalyzeOptions(endTime int64) AnalyzeOptions {
	return AnalyzeOptions{
		Epsilon:      0.90,
		Delta:        0.90,
		Percentile:   0.90,
		LargestMiner: 0,
		EndTime:      endTime,
	}
}

// Report carries every §6 metric for one run, plus the supporting counters
// the §8 figures plot.
type Report struct {
	Duration time.Duration

	// Chain composition.
	Blocks          int // all blocks generated (excluding genesis)
	MainChainBlocks int
	PowBlocks       int // PoW-bearing blocks generated
	MainPowBlocks   int // PoW-bearing blocks on the main chain

	// ConsensusDelay is the (ε, δ)-consensus delay (§6).
	ConsensusDelay time.Duration
	// Fairness is the ratio of the non-largest-miner's main-chain
	// representation to its share of generated PoW blocks; 1.0 is optimal
	// (§6 "Fairness").
	Fairness float64
	// MiningPowerUtilization is main-chain work over total work (§6).
	MiningPowerUtilization float64
	// TimeToPrune is the δ-percentile subjective time to prune (§6).
	TimeToPrune time.Duration
	// TimeToWin is the δ-percentile time to win (§6).
	TimeToWin time.Duration

	// Throughput of the serialized ledger.
	TxFrequency        float64 // regular transactions per second on the main chain
	PayloadBytesPerSec float64
	// ForksPerPowBlock is pruned PoW blocks per main-chain PoW block.
	ForksPerPowBlock float64

	// Block propagation: per-block time for ≥25/50/75% of nodes to accept,
	// reported as the median over blocks (Figure 7's percentile curves).
	PropagationP25 time.Duration
	PropagationP50 time.Duration
	PropagationP75 time.Duration
}

// Analyze computes the report. It is called once, after the run completes.
func (c *Collector) Analyze(opts AnalyzeOptions) *Report {
	c.mu.Lock()
	defer c.mu.Unlock()

	r := &Report{Duration: time.Duration(opts.EndTime - c.start)}
	if opts.Epsilon <= 0 {
		opts.Epsilon = 0.90
	}
	if opts.Delta <= 0 {
		opts.Delta = 0.90
	}
	if opts.Percentile <= 0 {
		opts.Percentile = 0.90
	}

	main := c.finalMainChain()
	onMain := make([]bool, len(c.blocks))
	for _, idx := range main {
		onMain[idx] = true
	}

	// Steady-state window: measurements of rates and agreement start at
	// the first main-chain block, excluding the empty warmup before any
	// mining succeeded (the paper's executions likewise measure over the
	// mined portion of the run).
	warmStart := c.start
	if len(main) > 1 {
		warmStart = c.blocks[main[1]].Info.Time
	}

	c.composition(r, main, onMain, warmStart, opts)
	c.fairness(r, main, onMain, opts)
	c.consensusDelay(r, warmStart, opts)
	c.timeToPrune(r, main, onMain, opts)
	c.timeToWin(r, main, onMain, opts)
	c.propagation(r)
	return r
}

// finalMainChain picks the heaviest chain in the registry (most cumulative
// PoW blocks; a tie goes to the greater height, then to the earliest
// generation) and returns its block indices, genesis first.
func (c *Collector) finalMainChain() []int32 {
	best := int32(0)
	for _, rec := range c.blocks {
		b := c.blocks[best]
		if rec.PowHeight > b.PowHeight ||
			(rec.PowHeight == b.PowHeight && rec.Height > b.Height) ||
			(rec.PowHeight == b.PowHeight && rec.Height == b.Height && rec.Info.Time < b.Info.Time) {
			best = rec.Idx
		}
	}
	var chainIdx []int32
	for i := best; i >= 0; i = c.blocks[i].ParentIdx {
		chainIdx = append(chainIdx, i)
	}
	for i, j := 0, len(chainIdx)-1; i < j; i, j = i+1, j-1 {
		chainIdx[i], chainIdx[j] = chainIdx[j], chainIdx[i]
	}
	return chainIdx
}

func (c *Collector) composition(r *Report, main []int32, onMain []bool, warmStart int64, opts AnalyzeOptions) {
	var payload int64
	var txs int64
	for _, rec := range c.blocks[1:] { // skip genesis
		r.Blocks++
		if rec.Info.Work {
			r.PowBlocks++
		}
	}
	for _, idx := range main[1:] {
		rec := c.blocks[idx]
		r.MainChainBlocks++
		if rec.Info.Work {
			r.MainPowBlocks++
		}
		txs += int64(rec.Info.TxCount)
		payload += int64(rec.Info.Payload)
	}
	if secs := (time.Duration(opts.EndTime - warmStart)).Seconds(); secs > 0 {
		r.TxFrequency = float64(txs) / secs
		r.PayloadBytesPerSec = float64(payload) / secs
	}
	if r.PowBlocks > 0 {
		r.MiningPowerUtilization = float64(r.MainPowBlocks) / float64(r.PowBlocks)
	}
	if r.MainPowBlocks > 0 {
		r.ForksPerPowBlock = float64(r.PowBlocks-r.MainPowBlocks) / float64(r.MainPowBlocks)
	}
}

// fairness computes §6's ratio of ratios over PoW-bearing blocks (the
// contention objects: all blocks for Bitcoin, key blocks for Bitcoin-NG,
// whose leaders also author the epoch's microblocks).
func (c *Collector) fairness(r *Report, main []int32, onMain []bool, opts AnalyzeOptions) {
	var mainTotal, mainOthers, allTotal, allOthers float64
	for _, rec := range c.blocks[1:] {
		if !rec.Info.Work {
			continue
		}
		allTotal++
		if rec.Info.MinerID != opts.LargestMiner {
			allOthers++
		}
		if onMain[rec.Idx] {
			mainTotal++
			if rec.Info.MinerID != opts.LargestMiner {
				mainOthers++
			}
		}
	}
	if mainTotal == 0 || allTotal == 0 || allOthers == 0 {
		r.Fairness = 1
		return
	}
	r.Fairness = (mainOthers / mainTotal) / (allOthers / allTotal)
}

// consensusDelay computes the (ε, δ) consensus delay: at sample times t, the
// smallest Δ such that ≥ ε·|N| nodes report the same transition prefix up to
// t−Δ (Figure 4's point-consensus-delay), then takes the δ-percentile over
// samples.
func (c *Collector) consensusDelay(r *Report, warmStart int64, opts AnalyzeOptions) {
	n := int(c.nodes)
	if n == 0 {
		return
	}
	need := int(opts.Epsilon * float64(n))
	if need < 1 {
		need = 1
	}
	interval := int64(opts.SampleEvery)
	if interval <= 0 {
		interval = (opts.EndTime - warmStart) / 100
		if interval <= 0 {
			interval = 1
		}
	}

	// chainContains reports whether block idx is an ancestor-or-equal of
	// tip, and returns the next block after idx on the path (or -1 when
	// idx is the tip itself).
	chainContains := func(tip, idx int32) (bool, int32) {
		next := int32(-1)
		cur := tip
		target := c.blocks[idx]
		for cur >= 0 && c.blocks[cur].Height >= target.Height {
			if cur == idx {
				return true, next
			}
			next = cur
			cur = c.blocks[cur].ParentIdx
		}
		return false, -1
	}

	var delays []float64
	// Every node's tip and the time it became the tip, advanced sample by
	// sample; per-sample scratch: the candidates and the set of them, which
	// is cleared through the candidate list.
	tips, tipTime := make([]int32, n), make([]int64, n)
	for i := range tipTime {
		tipTime[i] = math.MinInt64
	}
	seen := make([]bool, len(c.blocks))
	var candidates []int32
	for prev, t := int64(math.MinInt64), warmStart+interval; t <= opts.EndTime; prev, t = t, t+interval {
		c.tipsAt(prev, t, tips, tipTime)
		// Candidate agreement points: blocks on any node's chain, tried
		// newest-first. Collect candidates from the union of current
		// tips' chains.
		for _, cand := range candidates {
			seen[cand] = false
		}
		candidates = candidates[:0]
		for _, tip := range tips {
			for cur := tip; cur >= 0 && !seen[cur]; cur = c.blocks[cur].ParentIdx {
				seen[cur] = true
				candidates = append(candidates, cur)
			}
		}
		sort.Slice(candidates, func(i, j int) bool {
			return c.blocks[candidates[i]].Info.Time > c.blocks[candidates[j]].Info.Time
		})

		delay := float64(t - c.blocks[0].Info.Time) // worst case: genesis
		for _, cand := range candidates {
			ct := c.blocks[cand].Info.Time
			if ct > t {
				continue
			}
			// A node agrees on the prefix ending at cand iff cand is on
			// its chain and the successor (if any) is newer than cand's
			// timestamp — i.e., the node's prefix "up to time ct" is
			// exactly the chain through cand.
			agree := 0
			for _, tip := range tips {
				onChain, next := chainContains(tip, cand)
				if !onChain {
					continue
				}
				if next == -1 || c.blocks[next].Info.Time > ct {
					agree++
				}
			}
			if agree >= need {
				delay = float64(t - ct)
				break
			}
		}
		delays = append(delays, delay)
	}
	if len(delays) > 0 {
		r.ConsensusDelay = time.Duration(stats.Percentile(delays, opts.Delta))
	}
}

// tipsAt folds into tips the tip changes logged at times in (from, to]:
// tips[i] becomes node i's latest change at or before to, a later entry of
// the log winning a tie, and tipTime[i] that change's time. Called over
// ascending windows from the start (every tip genesis, idx 0, at
// math.MinInt64), it leaves each node's tip at to. It reads the log where
// it lies, skipping the chunks whose time span misses the window.
func (c *Collector) tipsAt(from, to int64, tips []int32, tipTime []int64) {
	for ch := c.tipHead; ch != nil; ch = ch.next {
		if ch.lo > to || ch.hi <= from {
			continue
		}
		n := tipChunkLen
		if ch == c.tipTail {
			n = c.tipN
		}
		for _, r := range ch.recs[:n] {
			if r.At > from && r.At <= to && r.At >= tipTime[r.Node] {
				tips[r.Node], tipTime[r.Node] = r.Idx, r.At
			}
		}
	}
}

// timeToPrune computes, per node and pruned branch, the time between the
// node's receipt of the first branch block and its receipt of the main-chain
// block that outweighs the branch (Figure 5), reporting the δ-percentile.
func (c *Collector) timeToPrune(r *Report, main []int32, onMain []bool, opts AnalyzeOptions) {
	// Branch roots: blocks off the final main chain whose parent is on it.
	// The branch is the root's whole off-chain subtree; its weight is the
	// max PowHeight within.
	// branchOf maps a block to its branch root (-1 on the main chain);
	// branchWeight holds a root's weight (-1 for a block that is no root).
	branchOf := make([]int32, len(c.blocks))
	branchWeight := make([]int32, len(c.blocks))
	for i := range branchOf {
		branchOf[i], branchWeight[i] = -1, -1
	}
	weighted := false
	// Blocks are registered parents-first, so one forward pass labels.
	for _, rec := range c.blocks {
		if onMain[rec.Idx] || rec.ParentIdx < 0 {
			continue
		}
		root := rec.Idx
		if pr := branchOf[rec.ParentIdx]; pr >= 0 {
			root = pr
		}
		branchOf[rec.Idx] = root
		branchWeight[root] = max(branchWeight[root], rec.PowHeight, 0)
		weighted = weighted || rec.PowHeight > 0
	}
	if !weighted {
		// No branch carries work: nothing was ever outweighed.
		r.TimeToPrune = 0
		return
	}

	// Per branch and node: the node's first receipt of a branch block, and
	// its earliest receipt, no sooner, of a main-chain block that outweighs
	// the branch. To prune a branch of weight w a node needs a main block
	// of weight > w; main-chain weight never falls along the chain, so the
	// candidates are a suffix of it.
	var members []int32
	var samples []float64
	for root, w := range branchWeight {
		if w < 0 {
			continue
		}
		members = members[:0]
		for i, br := range branchOf {
			if br == int32(root) {
				members = append(members, int32(i))
			}
		}
		heavier := main[len(main):]
		for k, idx := range main {
			if c.blocks[idx].PowHeight > w {
				heavier = main[k:]
				break
			}
		}
		for nd := range c.nodes {
			t0 := c.firstAccept(members, nd, math.MinInt64)
			if t0 == notAccepted {
				continue
			}
			if at := c.firstAccept(heavier, nd, t0); at != notAccepted {
				samples = append(samples, float64(at-t0))
			}
		}
	}
	// Sort the samples so the percentile input (and any future tie-broken
	// statistic) is free of the walk's order.
	sort.Float64s(samples)
	if len(samples) > 0 {
		r.TimeToPrune = time.Duration(stats.PercentileSorted(samples, opts.Percentile))
	}
}

// firstAccept returns the earliest time at or after from at which node nd
// accepted one of blocks, notAccepted if it accepted none by then.
func (c *Collector) firstAccept(blocks []int32, nd int32, from int64) int64 {
	first := int64(notAccepted)
	for _, idx := range blocks {
		acc := c.blocks[idx].accepted
		if int(nd) >= len(acc) {
			continue
		}
		if at := acc[nd]; at != notAccepted && at >= from && (first == notAccepted || at < first) {
			first = at
		}
	}
	return first
}

// timeToWin computes, per main-chain block, the time from its generation to
// the last generation of a block that is not its descendant (zero when
// earlier), reporting the δ-percentile (§8 "Metrics").
func (c *Collector) timeToWin(r *Report, main []int32, onMain []bool, opts AnalyzeOptions) {
	if len(main) <= 1 {
		return
	}
	// For each block, its fork point: the deepest ancestor on the main
	// chain. A block g is NOT a descendant of main blocks deeper than its
	// fork point, so g's generation time competes with all of them.
	heightOnMain := make(map[int32]int32, len(main))
	for _, idx := range main {
		heightOnMain[idx] = c.blocks[idx].Height
	}
	// latestByForkHeight[h] = latest generation time among blocks whose
	// fork point sits at main-chain height h.
	latestByForkHeight := make([]int64, len(main))
	forkPoint := make([]int32, len(c.blocks))
	for _, rec := range c.blocks {
		if rec.ParentIdx < 0 {
			forkPoint[rec.Idx] = 0
			continue
		}
		if onMain[rec.Idx] {
			forkPoint[rec.Idx] = rec.Height
		} else {
			forkPoint[rec.Idx] = forkPoint[rec.ParentIdx]
		}
		h := forkPoint[rec.Idx]
		if int(h) < len(latestByForkHeight) && rec.Info.Time > latestByForkHeight[h] {
			latestByForkHeight[h] = rec.Info.Time
		}
	}
	// prefixMax[h] = latest competing generation among fork heights < h.
	prefixMax := make([]int64, len(main)+1)
	for h := 1; h <= len(main); h++ {
		prefixMax[h] = prefixMax[h-1]
		if latestByForkHeight[h-1] > prefixMax[h] {
			prefixMax[h] = latestByForkHeight[h-1]
		}
	}
	var samples []float64
	for _, idx := range main[1:] {
		rec := c.blocks[idx]
		last := prefixMax[rec.Height]
		ttw := last - rec.Info.Time
		if ttw < 0 {
			ttw = 0
		}
		samples = append(samples, float64(ttw))
	}
	if len(samples) > 0 {
		r.TimeToWin = time.Duration(stats.Percentile(samples, opts.Percentile))
	}
}

// propagation reports the median over blocks of the time for 25/50/75% of
// nodes to accept each block (Figure 7's percentile curves).
func (c *Collector) propagation(r *Report) {
	n := int(c.nodes)
	if n == 0 {
		return
	}
	var p25s, p50s, p75s []float64
	delays := make([]float64, 0, n) // one block's, reused
	for _, rec := range c.blocks[1:] {
		delays = delays[:0]
		for _, at := range rec.accepted {
			if at != notAccepted {
				delays = append(delays, float64(at-rec.Info.Time))
			}
		}
		if len(delays) == 0 {
			continue
		}
		sort.Float64s(delays)
		// Time to reach a fraction of ALL nodes, not just receivers:
		// index into the sorted delays at fraction*n.
		at := func(frac float64) (float64, bool) {
			idx := int(frac*float64(n)) - 1
			if idx < 0 {
				idx = 0
			}
			if idx >= len(delays) {
				return 0, false // never reached that many nodes
			}
			return delays[idx], true
		}
		if v, ok := at(0.25); ok {
			p25s = append(p25s, v)
		}
		if v, ok := at(0.50); ok {
			p50s = append(p50s, v)
		}
		if v, ok := at(0.75); ok {
			p75s = append(p75s, v)
		}
	}
	if len(p25s) > 0 {
		r.PropagationP25 = time.Duration(stats.Percentile(p25s, 0.5))
	}
	if len(p50s) > 0 {
		r.PropagationP50 = time.Duration(stats.Percentile(p50s, 0.5))
	}
	if len(p75s) > 0 {
		r.PropagationP75 = time.Duration(stats.Percentile(p75s, 0.5))
	}
}
