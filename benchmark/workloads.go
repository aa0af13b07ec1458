package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"bitcoinng/internal/chaos"
	"bitcoinng/internal/experiment"
	"bitcoinng/internal/invariant"
	"bitcoinng/internal/metrics"
	"bitcoinng/internal/mining"
	"bitcoinng/internal/scenario"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/types"
	"bitcoinng/internal/validate"
)

// txSize is the paper's operational average transaction size (§7); every
// workload uses it.
const txSize = 476

// workload is one reference run. Its run function builds inputs from the
// child's seed alone, calls m.beginTimed when set-up is over and m.endTimed
// when the measured region ends, and returns what it observed.
type workload struct {
	name string
	why  string
	// children is how many timed child processes one 20-second run starts;
	// the contract's --seconds scales it (see childrenFor).
	children int
	// hostClock marks a workload whose own clock is the host's: its
	// protocol-level outputs are measurements, not exact functions of the seed.
	hostClock bool
	run       func(spec childSpec, m *meter, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{
		name:     "scale1000",
		why:      "paper-scale 1000-node run on the sharded engine; connect-cache hit path (utxo redo) plus sim/simnet delivery dominate, mempool and store idle",
		children: 6,
		run:      runScale1000,
	},
	{
		name:     "blast16",
		why:      "16-node cluster with real bounded mempools and loose-tx relay; mempool admission dominates, block connect is minor",
		children: 3,
		run:      runBlast16,
	},
	{
		name:     "filestore8",
		why:      "8 nodes on file-backed stores with compaction and two crash/restart replays; paged table, journal, fsync and index replay carry the cost",
		children: 6,
		run:      runFilestore8,
	},
	{
		name:      "livesync3",
		why:       "two fresh live nodes sync a canonical chain from a source over loopback TCP; the only place framing, decode and per-node signature checks run",
		children:  4,
		hostClock: true,
		run:       runLivesync3,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// childSpec is everything a child process is told. Its inputs derive from
// Seed alone.
type childSpec struct {
	Workload string
	Seed     int64
	// Short shrinks virtual durations for the directory's own tests.
	Short bool
	// Check adds invariant.Defaults to the run. Invariants are read-only, so
	// a check child must reproduce the digest of the timed child it mirrors.
	Check bool
	// TracePath, when set, makes this the traced child: spans around the
	// calls into public functions, unit costs, and the trace file at exit.
	TracePath string
	// MempoolTxs overrides blast16's per-node mempool bound; the tests run a
	// child in-process with a tiny one to force load shedding.
	MempoolTxs int
}

// virtualMetrics are the paper-level outputs of a run on the workload's own
// clock: virtual time, exactly repeatable for a seed, on the simulated
// workloads; host time on livesync3.
type virtualMetrics struct {
	confirmedTPS   float64
	confP50        time.Duration
	confP90        time.Duration
	confP99        time.Duration
	consensusDelay time.Duration
	propagationP50 time.Duration
}

// outcome is what a workload observed in one child.
type outcome struct {
	// attempted operations and how many of them failed: offered transactions
	// not on the reference main chain at the end (refusals included), or
	// blocks a syncing peer had not connected at the deadline.
	attempted, failed int64
	// txs is the host-throughput numerator: transactions confirmed, or
	// connected by syncing peers, during the timed region.
	txs     int64
	digest  string
	virtual virtualMetrics
	// layer holds exact per-layer counts read from public results.
	layer    map[string]float64
	problems []string
	// facts are the operation counts the cost attribution multiplies unit
	// costs by; canonical is set by the workload that already built the
	// canonical chain, so the traced child need not build it twice.
	facts     facts
	canonical *canonical
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// meter brackets the timed region with host samples.
type meter struct {
	start      hostSample // process start
	t0, t1     hostSample
	alloc0     uint64
	allocBytes uint64
}

// beginTimed ends set-up: it settles the heap so every child enters the
// timed region in the same collector state, then samples the clocks.
func (m *meter) beginTimed() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc0 = ms.TotalAlloc
	m.t0 = readHost()
}

func (m *meter) endTimed() {
	m.t1 = readHost()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocBytes = ms.TotalAlloc - m.alloc0
}

// seatFirstLeader scripts the opening of an experiment run so an epoch
// leader exists within milliseconds of virtual time zero: node 0 (the
// largest miner) mines fast until some node leads, then returns to its
// configured power. Without it the first key block arrives after an
// exponentially distributed wait with the 100 s key-block mean, and a short
// run's latencies, block count and host cost are dominated by that one draw
// (on roughly one seed in ten no leader appears before injection ends).
func seatFirstLeader(nodes int, params types.Params) []scenario.TimedStep {
	normal := mining.ExponentialShares(nodes, mining.DefaultExponent)[0] / params.TargetBlockInterval.Seconds()
	restore := scenario.Call("seat-first-leader", func(rt scenario.Runtime) error {
		if rt.Leader() < 0 {
			return nil
		}
		return rt.SetMiningRate(0, normal)
	})
	steps := []scenario.TimedStep{scenario.At(0, scenario.Churn(0, 1000))}
	for ms := 1; ms <= 40; ms++ {
		steps = append(steps, scenario.At(time.Duration(ms)*time.Millisecond, restore))
	}
	return steps
}

// experimentShape sizes one experiment.Run workload.
type experimentShape struct {
	nodes       int
	parallelism int
	offered     float64
	// virtual is the run length; injection stops drain before it so every
	// offered transaction can confirm and no operation fails by design.
	virtual, drain time.Duration
	microInterval  time.Duration
	storeURL       string
	compactDepth   uint64
	// crashes are crash/restart cycles scripted after the seated first leader.
	crashes []crashCycle
}

// crashCycle takes one node down and brings it back.
type crashCycle struct {
	node     int
	down, up time.Duration
}

// experimentConfig turns a shape into the harness configuration. Paced
// workloads use the MaxSimTime stop rule, as ngload -sim does: with
// Offered > 0 and a small TargetBlocks the run ends before the ledger
// reports any confirmation (README, trap a).
func experimentConfig(sh experimentShape, spec childSpec) experiment.Config {
	cfg := experiment.DefaultConfig(experiment.BitcoinNG, sh.nodes, spec.Seed)
	cfg.TxSize = txSize
	cfg.Parallelism = sh.parallelism
	cfg.Offered = sh.offered
	cfg.WorkloadCount = int(sh.offered * (sh.virtual - sh.drain).Seconds())
	cfg.BandwidthBPS = 1e6
	cfg.TargetBlocks = 1 << 30
	cfg.MaxSimTime = sh.virtual
	if sh.microInterval > 0 {
		cfg.Params.MicroblockInterval = sh.microInterval
	}
	cfg.StoreURL = sh.storeURL
	cfg.CompactDepth = sh.compactDepth
	steps := seatFirstLeader(sh.nodes, cfg.Params)
	for _, c := range sh.crashes {
		steps = append(steps, scenario.At(c.down, scenario.Crash(c.node)), scenario.At(c.up, scenario.Restart(c.node)))
	}
	cfg.Scenario = scenario.New(steps...)
	if spec.Check {
		cfg.Invariants = invariant.Defaults(invariant.Options{})
	}
	return cfg
}

// warmUp is the set-up of the experiment-harness workloads: a small run of
// the same shape on a seed of its own, so lazy initialisation (the verify
// pool's workers, first-use allocations, the store code paths) happens
// before the timed region and not inside it. Its blocks share no hash with
// the timed run's, so nothing it leaves in the process-wide connect cache
// can be hit later.
func warmUp(sh experimentShape, spec childSpec) error {
	if sh.nodes > 64 {
		sh.nodes = 64
	}
	sh.virtual, sh.drain, sh.crashes = 30*time.Second, 15*time.Second, nil
	_, err := experiment.Run(experimentConfig(sh, childSpec{Seed: sim.DeriveSeed(spec.Seed, 0x77a7)}))
	return err
}

// runExperiment times one experiment.Run and reads its public result.
func runExperiment(sh experimentShape, spec childSpec, m *meter, tr *tracer) (*outcome, error) {
	if err := warmUp(sh, spec); err != nil {
		return nil, fmt.Errorf("warm-up experiment.Run: %w", err)
	}
	cacheBefore := validate.Shared().Stats()
	cfg := experimentConfig(sh, spec)
	m.beginTimed()
	id := tr.begin("experiment.Run", -1)
	res, err := experiment.Run(cfg)
	tr.end(id, 1)
	m.endTimed()
	if err != nil {
		return nil, fmt.Errorf("experiment.Run: %w", err)
	}
	o := &outcome{digest: chaos.Digest(res), layer: map[string]float64{}}
	if res.Load == nil {
		return nil, fmt.Errorf("experiment.Run returned no load report (pacing inactive)")
	}
	l := res.Load
	// Attempted is what the harness materialized and offered: the stream is
	// capped at WorkloadCount, while Load.Offered keeps counting the analytic
	// schedule through drain and grace.
	o.attempted = l.Admitted
	o.failed = l.Admitted - l.Confirmed
	o.txs = l.Confirmed
	checkLoad(o, l.Offered, l.Admitted, l.Confirmed)
	for _, e := range res.ScenarioErrors {
		o.problemf("scenario error: %v", e)
	}
	for _, v := range res.InvariantViolations {
		o.problemf("invariant violation: %s", v)
	}
	o.virtual = virtualMetrics{
		confirmedTPS:   l.ConfirmedPerSec(),
		confP50:        l.P50,
		confP90:        l.P90,
		confP99:        l.P99,
		consensusDelay: res.Report.ConsensusDelay,
		propagationP50: res.Report.PropagationP50,
	}
	o.layer["sim.events"] = float64(res.Events)
	netLayer(o.layer, res.NetStats, l.Confirmed)
	chainLayer(o.layer, res.Report)
	for _, s := range res.Backpressure {
		switch s.Name {
		case "mempool-depth-max":
			o.layer["mempool.depth_max"] = s.Max
		case "pending-fetches":
			o.layer["node.pending_fetch_max"] = s.Max
		case "lookahead-occupancy":
			o.layer["load.lookahead_max"] = s.Max
		}
	}
	cache := validate.Shared().Stats()
	cacheLayer(o.layer, validate.Stats{Hits: cache.Hits - cacheBefore.Hits, Misses: cache.Misses - cacheBefore.Misses})
	storeLayer(o.layer, res.StoreStats)
	o.facts = facts{
		harness: "experiment", nodes: sh.nodes, sharded: sh.parallelism > 1,
		fileStore: sh.storeURL != "", signed: l.Admitted, analyses: 1,
		// The runner flushes every store at each maintenance boundary, one
		// per key-block interval, and once more at the end.
		storeSyncs: int64(sh.nodes) * (int64(sh.virtual/cfg.Params.TargetBlockInterval) + 1),
	}
	for _, c := range sh.crashes {
		// A restart replays the node's index as it stood at the crash: about
		// the share of the run's blocks produced by then.
		o.facts.replayedBlocks += int64(float64(res.Report.Blocks) * float64(c.down) / float64(sh.virtual))
	}
	return o, nil
}

// checkLoad enforces 0 < Confirmed ≤ Admitted ≤ Offered.
func checkLoad(o *outcome, offered, admitted, confirmed int64) {
	if !(0 < confirmed && confirmed <= admitted && admitted <= offered) {
		o.problemf("load accounting: want 0 < confirmed ≤ admitted ≤ offered, got confirmed=%d admitted=%d offered=%d",
			confirmed, admitted, offered)
	}
}

func netLayer(layer map[string]float64, net simnet.Stats, confirmed int64) {
	layer["simnet.msgs_sent"] = float64(net.MessagesSent)
	layer["simnet.bytes_sent"] = float64(net.BytesSent)
	layer["simnet.msgs_lost"] = float64(net.MessagesLost)
	layer["simnet.max_queue_delay_s"] = net.MaxQueueDelay.Seconds()
	if confirmed > 0 {
		layer["node.msgs_per_confirmed_tx"] = float64(net.MessagesSent) / float64(confirmed)
		layer["node.bytes_per_confirmed_tx"] = float64(net.BytesSent) / float64(confirmed)
	}
}

func chainLayer(layer map[string]float64, r *metrics.Report) {
	layer["chain.blocks"] = float64(r.Blocks)
	layer["chain.main_blocks"] = float64(r.MainChainBlocks)
	if r.Blocks > 0 {
		layer["chain.pruned_share"] = float64(r.Blocks-r.MainChainBlocks) / float64(r.Blocks)
	}
}

func cacheLayer(layer map[string]float64, s validate.Stats) {
	layer["validate.cache_hits"] = float64(s.Hits)
	layer["validate.cache_misses"] = float64(s.Misses)
	layer["validate.cache_hit_ratio"] = s.HitRate()
}

// storeLayer reads the fleet-aggregated storage counters; the last sample of
// each series is the running total at the final maintenance boundary.
func storeLayer(layer map[string]float64, stats []metrics.BackpressureStat) {
	last := map[string]float64{}
	for _, s := range stats {
		last[s.Name] = s.Last
	}
	layer["store.gets"] = last["store-gets"]
	layer["store.puts"] = last["store-puts"]
	layer["store.page_reads"] = last["store-page-reads"]
	layer["store.page_writes"] = last["store-page-writes"]
	if lookups := last["store-cache-hits"] + last["store-cache-misses"]; lookups > 0 {
		layer["store.page_hit_ratio"] = last["store-cache-hits"] / lookups
	}
	layer["store.journal_mb"] = last["store-journal-bytes"] / 1e6
	layer["store.checkpoints"] = last["store-checkpoints"]
}

func runScale1000(spec childSpec, m *meter, tr *tracer) (*outcome, error) {
	sh := experimentShape{nodes: 1000, parallelism: 2, offered: 20,
		virtual: 5 * time.Minute, drain: time.Minute}
	if spec.Short {
		sh.virtual, sh.drain = 90*time.Second, 40*time.Second
	}
	return runExperiment(sh, spec, m, tr)
}

func runFilestore8(spec childSpec, m *meter, tr *tracer) (*outcome, error) {
	sh := experimentShape{nodes: 8, parallelism: 1, offered: 50,
		virtual: 5 * time.Minute, drain: time.Minute,
		microInterval: 2 * time.Second, storeURL: "file:", compactDepth: 64}
	if spec.Short {
		sh.virtual, sh.drain = 100*time.Second, 30*time.Second
	}
	// Two crash/restart cycles at fixed fractions of the run: each restart
	// resets the node's ledger store and replays its whole chain index.
	at := func(fifteenths int) time.Duration { return sh.virtual * time.Duration(fifteenths) / 15 }
	sh.crashes = []crashCycle{{node: 3, down: at(6), up: at(8)}, {node: 5, down: at(10), up: at(11)}}
	return runExperiment(sh, spec, m, tr)
}

// e2e assembles a child's end-to-end metrics from the meter and the
// workload's outcome.
func e2eMetrics(m *meter, o *outcome) map[string]float64 {
	wall := m.t1.secondsSince(m.t0)
	out := map[string]float64{
		"setup_s":           m.t0.secondsSince(m.start),
		"wall_s":            wall,
		"cpu_s":             m.t1.cpuSecondsSince(m.t0),
		"alloc_mb":          float64(m.allocBytes) / 1e6,
		"peak_rss_mb":       float64(readHost().maxRSSKiB) / 1024,
		"confirmed_tps":     o.virtual.confirmedTPS,
		"conf_p50_s":        o.virtual.confP50.Seconds(),
		"consensus_delay_s": o.virtual.consensusDelay.Seconds(),
	}
	if wall > 0 {
		out["host_tps"] = float64(o.txs) / wall
	}
	if o.attempted > 0 {
		out["ok_share"] = float64(o.attempted-o.failed) / float64(o.attempted)
	}
	return out
}

// checkFinite records a problem for every metric that is not a finite number.
func checkFinite(o *outcome, metrics map[string]float64) {
	for _, name := range sortedKeys(metrics) {
		if v := metrics[name]; math.IsNaN(v) || math.IsInf(v, 0) {
			o.problemf("metric %s is not finite: %v", name, v)
		}
	}
}
