package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"bitcoinng"
	"bitcoinng/internal/chain"
	"bitcoinng/internal/core"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/metrics"
	"bitcoinng/internal/node"
	"bitcoinng/internal/p2p"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/stats"
	"bitcoinng/internal/types"
	"bitcoinng/internal/validate"
	"bitcoinng/internal/wire"
)

// liveMaxBlockSize keeps a 32-block sync batch under wire.MaxMessageSize.
// With the default 1 MB microblocks a BlockBatchMsg exceeds the 4 MiB frame
// limit, the write fails, the peer is dropped, and the then peerless
// Syncer.onTimeout divides by zero in nextPeer (README, trap b).
const liveMaxBlockSize = 100_000

// syncDeadline bounds the live sync; a peer not at the source tip by then
// has failed its remaining blocks.
const syncDeadline = 60 * time.Second

// canonical is the deterministic chain livesync3 transfers and the traced
// child's unit costs replay: node 0's main chain from a 4-node simulated
// cluster under sustained load.
type canonical struct {
	genesis *types.PowBlock
	params  types.Params
	// blocks is the main chain after genesis, in order. These are the
	// simulator's own objects and carry memoized validation verdicts; fresh
	// returns copies that carry none.
	blocks     []types.Block
	kinds      []wire.MsgType
	encoded    [][]byte
	txs, bytes int64
	streamAddr crypto.Address

	// The run that built the chain.
	cluster  *bitcoinng.Cluster
	analysis *metrics.Report
	built    *outcome
}

func canonicalShape(short bool) blastShape {
	sh := blastShape{nodes: 4, rate: 40, duration: 8 * time.Minute, grace: 30 * time.Second,
		lanes: 64, mempoolTxs: 20000,
		maxBlockSize: liveMaxBlockSize, microInterval: 2 * time.Second}
	if short {
		sh.duration = 60 * time.Second
	}
	return sh
}

// buildCanonical runs the chain-building cluster and encodes its main chain.
func buildCanonical(spec childSpec) (*canonical, error) {
	sh := canonicalShape(spec.Short)
	c, err := newBlastCluster(sh, spec)
	if err != nil {
		return nil, err
	}
	layer := map[string]float64{}
	report, err := blast(c, sh, nil, layer)
	if err != nil {
		return nil, fmt.Errorf("Blast: %w", err)
	}
	built := blastOutcome(c, report, layer)
	main := c.Node(0).Chain().MainChain()
	genesis, ok := main[0].Block().(*types.PowBlock)
	if !ok {
		return nil, fmt.Errorf("canonical chain: genesis is %T, want *types.PowBlock", main[0].Block())
	}
	cn := &canonical{
		genesis:    genesis,
		params:     c.Node(0).Chain().Params(),
		streamAddr: c.Stream().GenesisPayouts()[0].To,
		cluster:    c,
		analysis:   c.Report(),
		built:      built,
	}
	for _, n := range main[1:] {
		b := n.Block()
		enc := wire.Encode(b)
		cn.blocks = append(cn.blocks, b)
		cn.kinds = append(cn.kinds, types.BlockMsgType(b))
		cn.encoded = append(cn.encoded, enc)
		cn.txs += int64(len(b.Transactions()))
		cn.bytes += int64(len(enc))
	}
	if len(cn.blocks) == 0 {
		return nil, fmt.Errorf("canonical chain is empty")
	}
	return cn, nil
}

// fresh decodes new copies of the chain's blocks: objects no validator has
// seen, so no memoized signature or well-formedness verdict rides along.
func (cn *canonical) fresh() ([]types.Block, error) {
	out := make([]types.Block, len(cn.encoded))
	for i, enc := range cn.encoded {
		b, err := types.DecodeBlockMsg(cn.kinds[i], enc)
		if err != nil {
			return nil, fmt.Errorf("decode canonical block %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
}

// tipHash is the hash of the chain's last block.
func (cn *canonical) tipHash() crypto.Hash { return cn.blocks[len(cn.blocks)-1].Hash() }

// liveNode is one Bitcoin-NG node on the live TCP runtime.
type liveNode struct {
	rt   *p2p.Runtime
	node *core.Node
}

// syncWatcher is a syncing peer's metrics recorder: it notes when each block
// was accepted (on the runtime's own clock) and signals reached once the
// node's tip equals target, so the benchmark waits on an event, not a poll.
// The node's event goroutine is its only writer; read it through rt.Do.
type syncWatcher struct {
	node.NopRecorder
	target   crypto.Hash
	reached  chan struct{}
	done     bool
	accepted map[crypto.Hash]int64
}

func newSyncWatcher(target crypto.Hash) *syncWatcher {
	return &syncWatcher{target: target, reached: make(chan struct{}), accepted: map[crypto.Hash]int64{}}
}

func (w *syncWatcher) BlockAccepted(_ int, at int64, id node.BlockID) {
	if _, seen := w.accepted[id]; !seen {
		w.accepted[id] = at
	}
}

func (w *syncWatcher) TipChanged(_ int, _ int64, tip node.BlockID, _, _ []node.BlockID) {
	if !w.done && tip == w.target {
		w.done = true
		close(w.reached)
	}
}

// newLiveNode starts a node with its own connect cache: live peers share no
// verdicts, each validates everything it receives.
func newLiveNode(cn *canonical, id int, seed int64, rec node.Recorder) (*liveNode, error) {
	key, err := crypto.GenerateKey(sim.NewRand(seed, uint64(0x50000+id)))
	if err != nil {
		return nil, fmt.Errorf("live node %d key: %w", id, err)
	}
	rt := p2p.New(p2p.Config{NodeID: id, GenesisHash: cn.genesis.Hash(), Seed: seed})
	n, err := core.New(rt, core.Config{
		Params:          cn.params,
		Key:             key,
		Genesis:         cn.genesis,
		Recorder:        rec,
		SimulatedMining: true, // the canonical key blocks are scheduler-generated
		ConnectCache:    validate.NewCache(0),
	})
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("live node %d: %w", id, err)
	}
	rt.SetHandler(n.HandleMessage)
	return &liveNode{rt: rt, node: n}, nil
}

// view reads the node's tip, stream balance and cache counters on its event
// goroutine.
func (ln *liveNode) view(addr crypto.Address) (tip *chain.Node, balance types.Amount, cache validate.Stats, peers int) {
	ln.rt.Do(func() {
		tip = ln.node.State.Tip()
		balance = ln.node.State.UTXO().BalanceOf(addr)
		cache = ln.node.State.ConnectCacheStats()
	})
	return tip, balance, cache, len(ln.rt.Peers())
}

func runLivesync3(spec childSpec, m *meter, tr *tracer) (*outcome, error) {
	const peers = 2
	cn, err := buildCanonical(spec)
	if err != nil {
		return nil, err
	}
	o, err := liveSync(cn, spec, peers, m, tr)
	if err != nil {
		return nil, err
	}
	o.canonical = cn
	return o, nil
}

// liveSync loads the canonical chain into a listening source node, then
// times fresh peers connecting and syncing it to the tip.
func liveSync(cn *canonical, spec childSpec, peers int, m *meter, tr *tracer) (*outcome, error) {
	src, err := newLiveNode(cn, 1, spec.Seed, nil)
	if err != nil {
		return nil, err
	}
	defer src.rt.Close()
	blocks, err := cn.fresh()
	if err != nil {
		return nil, err
	}
	var loadErr error
	src.rt.Do(func() {
		for i, b := range blocks {
			if res := src.node.ProcessBlock(b, -1); res == nil || res.Status != chain.StatusMainChain {
				loadErr = fmt.Errorf("source rejected canonical block %d: %+v", i, res)
				return
			}
		}
	})
	if loadErr != nil {
		return nil, loadErr
	}
	addr, err := src.rt.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	nodes := make([]*liveNode, peers)
	watch := make([]*syncWatcher, peers)
	for i := range nodes {
		watch[i] = newSyncWatcher(cn.tipHash())
		if nodes[i], err = newLiveNode(cn, 2+i, spec.Seed, watch[i]); err != nil {
			return nil, err
		}
		defer nodes[i].rt.Close()
	}

	m.beginTimed()
	root := tr.begin("p2p.sync", -1)
	begin := readHost()
	for i, ln := range nodes {
		id := tr.begin("p2p.connect", root)
		err := ln.rt.Connect(addr.String())
		tr.end(id, 1)
		if err != nil {
			return nil, fmt.Errorf("peer %d connect: %w", i, err)
		}
		ln.rt.Do(func() { ln.node.Sync.Start(-1) })
	}
	// One deadline for the whole sync; each peer is awaited in turn, so a
	// peer's sync time is when its tip event was observed.
	deadline := deadlineAfter(syncDeadline)
	took := make([]float64, peers)
	for i := range nodes {
		id := tr.begin("p2p.peer_sync", root)
		select {
		case <-watch[i].reached:
		case <-deadline:
		}
		took[i] = readHost().secondsSince(begin)
		tr.end(id, int64(len(cn.blocks)))
	}
	tr.end(root, 1)
	m.endTimed()

	o := &outcome{layer: map[string]float64{}}
	o.problems = append(o.problems, cn.built.problems...)
	chainLayer(o.layer, cn.analysis)
	// The digest covers what must repeat exactly: the simulated run that
	// built the chain, and the state every node ends in.
	var b strings.Builder
	b.WriteString(cn.built.digest)
	srcTip, srcBalance, _, srcPeers := src.view(cn.streamAddr)
	fmt.Fprintf(&b, "source tip=%s height=%d balance=%d\n", srcTip.Hash(), srcTip.Height, srcBalance)
	if srcTip.Hash() != cn.tipHash() {
		o.problemf("source tip %s is not the canonical tip %s", srcTip.Hash().Short(), cn.tipHash().Short())
	}
	var hits, misses uint64
	dropped := peers - srcPeers
	o.attempted = int64(len(cn.blocks)) * int64(peers)
	for i, ln := range nodes {
		tip, balance, cache, conns := ln.view(cn.streamAddr)
		fmt.Fprintf(&b, "peer %d tip=%s height=%d balance=%d\n", i, tip.Hash(), tip.Height, balance)
		// A peer has connected the blocks up to its tip if that tip lies on
		// the source's main chain.
		var connected int64
		if n, ok := src.onMainChain(tip.Hash()); ok {
			connected = int64(n.Height)
		}
		o.failed += int64(len(cn.blocks)) - connected
		o.txs += txsThrough(cn, connected)
		if tip.Hash() != srcTip.Hash() {
			o.problemf("peer %d tip %s differs from source tip %s after %.1fs", i, tip.Hash().Short(), srcTip.Hash().Short(), took[i])
		}
		if balance != srcBalance {
			o.problemf("peer %d stream balance %d differs from source %d", i, balance, srcBalance)
		}
		if conns != 1 {
			dropped++
		}
		hits += cache.Hits
		misses += cache.Misses
	}
	if dropped > 0 {
		o.problemf("%d peer connection(s) dropped during sync", dropped)
	}
	o.digest = b.String()
	o.virtual = syncLatencies(cn, nodes, watch, begin, took)
	cacheLayer(o.layer, validate.Stats{Hits: hits, Misses: misses})
	o.layer["p2p.blocks_synced"] = float64(o.attempted - o.failed)
	o.layer["p2p.bytes_synced"] = float64(cn.bytes) * float64(peers)
	o.layer["p2p.peer_sync_s_min"], o.layer["p2p.peer_sync_s_max"] = stats.MinMax(took)
	o.layer["p2p.peers_dropped"] = float64(dropped)
	o.facts = facts{harness: "live", peers: peers, txs: cn.txs, wireBytes: cn.bytes}
	return o, nil
}

// syncLatencies computes livesync3's protocol-level outputs on its own
// clock, the host's: a transaction is confirmed at a peer when the peer
// accepts its block, timed from the start of the sync. Consensus delay is
// the time until every peer holds the source's tip; propagation is, per
// block, the gap between the first and the last peer accepting it.
func syncLatencies(cn *canonical, nodes []*liveNode, watch []*syncWatcher, begin hostSample, took []float64) virtualMetrics {
	type sample struct {
		at     time.Duration
		weight int64
	}
	var confirmed []sample
	first := make([]time.Duration, len(cn.blocks))
	last := make([]time.Duration, len(cn.blocks))
	for p, ln := range nodes {
		ln.rt.Do(func() {
			for i, b := range cn.blocks {
				at, ok := watch[p].accepted[b.Hash()]
				if !ok {
					continue
				}
				d := time.Duration(at - begin.wall.UnixNano())
				confirmed = append(confirmed, sample{d, int64(len(b.Transactions()))})
				if p == 0 || d < first[i] {
					first[i] = d
				}
				if d > last[i] {
					last[i] = d
				}
			}
		})
	}
	sort.Slice(confirmed, func(i, j int) bool { return confirmed[i].at < confirmed[j].at })
	var total int64
	for _, s := range confirmed {
		total += s.weight
	}
	// quantile is nearest-rank over transactions, as load.Report computes it.
	quantile := func(q float64) time.Duration {
		rank := int64(math.Ceil(q * float64(total)))
		var seen int64
		for _, s := range confirmed {
			if seen += s.weight; seen >= rank {
				return s.at
			}
		}
		return 0
	}
	gaps := make([]float64, len(cn.blocks))
	for i := range gaps {
		gaps[i] = float64(last[i] - first[i])
	}
	_, slowest := stats.MinMax(took)
	v := virtualMetrics{
		confP50:        quantile(0.50),
		confP90:        quantile(0.90),
		confP99:        quantile(0.99),
		consensusDelay: time.Duration(slowest * float64(time.Second)),
		propagationP50: time.Duration(median(gaps)),
	}
	if slowest > 0 {
		v.confirmedTPS = float64(cn.txs) / slowest
	}
	return v
}

// onMainChain finds a block on the node's main chain, on its event goroutine.
func (ln *liveNode) onMainChain(h crypto.Hash) (n *chain.Node, ok bool) {
	ln.rt.Do(func() {
		n, ok = ln.node.State.Store().Get(h)
		ok = ok && ln.node.State.MainChainContains(n)
	})
	return n, ok
}

// txsThrough counts the transactions in the first n canonical blocks.
func txsThrough(cn *canonical, n int64) int64 {
	var txs int64
	for _, b := range cn.blocks[:n] {
		txs += int64(len(b.Transactions()))
	}
	return txs
}
