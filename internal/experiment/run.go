package experiment

import (
	"fmt"
	"runtime"
	"time"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/harness"
	"bitcoinng/internal/invariant"
	"bitcoinng/internal/load"
	"bitcoinng/internal/metrics"
	"bitcoinng/internal/mining"
	"bitcoinng/internal/node"
	"bitcoinng/internal/protocol"
	"bitcoinng/internal/scenario"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/strategy"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
)

// Protocol selects which client the experiment runs (internal/protocol).
type Protocol = protocol.Protocol

// Protocols under evaluation.
const (
	Bitcoin   = protocol.Bitcoin
	BitcoinNG = protocol.BitcoinNG
	GHOST     = protocol.GHOST
)

// Config describes one experiment execution.
type Config struct {
	Protocol Protocol
	// Nodes is the network size; the paper runs 1000 (15% of the
	// operational Bitcoin network of the time).
	Nodes int
	// Seed makes the run reproducible: topology, latencies, mining, and
	// tie-breaking all derive from it.
	Seed int64
	// Params are the consensus parameters under test. MaxBlockSize is the
	// experiment's block (or microblock) size; TargetBlockInterval the
	// PoW/key block interval; MicroblockInterval the NG microblock rate.
	Params types.Params
	// TxSize is the identical artificial transaction size; the default
	// load.DefaultTxSize (476 bytes) gives Bitcoin's operational 3.5 tx/s at 1 MB per 10 minutes
	// (§7 "No Transaction Propagation").
	TxSize int
	// WorkloadCount caps the workload at this many transactions; zero sizes
	// it automatically from TargetBlocks and MaxBlockSize (or leaves the
	// stream unbounded when a pacing discipline below is active).
	WorkloadCount int
	// Offered, when > 0, switches the workload to open-loop pacing: every
	// node's view offers transactions at this rate (tx/s of virtual time)
	// instead of exposing the whole workload at once. The stream then signs
	// batches on demand and releases confirmed slots, so offered load is
	// unbounded by RAM.
	Offered float64
	// ClosedLoopWindow, when > 0 (and Offered is 0), switches the workload
	// to closed-loop pacing: each view keeps at most this many transactions
	// beyond its confirmed count outstanding.
	ClosedLoopWindow int
	// StreamLanes overrides the workload's lane count (chain parallelism of
	// the streaming generator); zero takes load.DefaultLanes.
	StreamLanes int
	// TargetBlocks stops the run once this many payload blocks (Bitcoin
	// blocks / NG microblocks) have been generated; the paper uses 50-100.
	TargetBlocks int
	// Grace lets the tail of the run propagate before measuring.
	Grace time.Duration
	// MaxSimTime hard-stops a run regardless of block count.
	MaxSimTime time.Duration
	// BandwidthBPS overrides the network model's bandwidth; zero keeps the
	// paper's 100 kbit/s.
	BandwidthBPS float64
	// Censors lists node indices that, while leading, publish empty
	// microblocks — the §5.2 "Censorship Resistance" DoS behaviour.
	// Bitcoin-NG only.
	Censors []int
	// Strategies assigns mining strategies (internal/strategy) by node
	// index; unlisted nodes run honest. The adversarial sweeps set e.g.
	// {0: "greedymine"}. Bitcoin-NG only.
	Strategies map[int]string
	// MiningShares fixes each node's fraction of the network's mining
	// power explicitly (normalized over the sum); nil draws the paper's
	// exponential rank distribution (Figure 6, exponent
	// mining.DefaultExponent). The adversarial sweeps pin the attacker's α
	// this way.
	MiningShares []float64
	// Scenario, if set, is armed at run start: each step fires at its
	// offset from virtual time zero. The run does not stop before the
	// scenario's last step, even once TargetBlocks is reached.
	Scenario *scenario.Scenario
	// DisableConnectCache turns off the shared connect cache, making every
	// node re-validate every block locally — the pre-cache behaviour, kept
	// for determinism cross-checks and micro-benchmarks. Reports are
	// byte-identical either way.
	DisableConnectCache bool
	// Parallelism selects the number of event-loop shards the run executes
	// on: nodes are partitioned across that many goroutines under the
	// conservative windowed engine (sim.ShardedLoop). 0 takes GOMAXPROCS; 1
	// recovers the classic single-threaded loop. Reports are byte-identical
	// at any value for the same seed (the CI determinism gate enforces it).
	Parallelism int
	// Invariants, when non-empty, are checked online against every node's
	// chain state: at every InvariantInterval of virtual time (evaluated at
	// the runner's slice boundaries, where both engines are quiescent) and
	// once more at run end. Violations land in Result.InvariantViolations;
	// they do not stop the run. Checks are read-only and engine-agnostic, so
	// results stay byte-identical at any Parallelism.
	Invariants []invariant.Invariant
	// InvariantInterval spaces the online checks; zero takes the key-block
	// interval.
	InvariantInterval time.Duration
	// StoreURL selects every node's storage backend via the internal/store
	// locator syntax: "" or "mem:" for the RAM-bound fast path, "file:<dir>"
	// for file backends rooted at dir, "file:" for a throwaway temporary
	// root removed at run end. Reports are byte-identical across backends
	// for the same (config, seed) — the chaos differential enforces it.
	StoreURL string
	// CompactDepth, when > 0, bounds resident chain state for long runs: at
	// every maintenance boundary each node evicts archived block bodies and
	// drops undo records buried at least this deep below its tip (bodies
	// reload transparently from the chain index). A reorg deeper than
	// CompactDepth panics, so pick it well above anything the scenario can
	// cause. With a file StoreURL this is the beyond-RAM mode: resident
	// state stays bounded while the chain grows on disk.
	CompactDepth uint64
}

// DefaultConfig is a paper-faithful configuration at the given scale.
func DefaultConfig(protocol Protocol, nodes int, seed int64) Config {
	params := types.DefaultParams()
	params.RetargetWindow = 0 // fixed difficulty: the scheduler sets rates
	params.CoinbaseMaturity = 100
	return Config{
		Protocol:     protocol,
		Nodes:        nodes,
		Seed:         seed,
		Params:       params,
		TxSize:       load.DefaultTxSize,
		TargetBlocks: 60,
		Grace:        30 * time.Second,
		MaxSimTime:   6 * time.Hour,
	}
}

// Result bundles an execution's outputs.
type Result struct {
	Config   Config
	Report   *metrics.Report
	NetStats simnet.Stats
	// Events is the number of simulation events executed.
	Events uint64
	// WallTime is the host time the simulation took.
	WallTime time.Duration
	// SimTime is the virtual duration of the run.
	SimTime time.Duration
	// ScenarioErrors collects failures from scheduled scenario steps, in
	// firing order.
	ScenarioErrors []error
	// InvariantViolations collects online invariant failures (when
	// Config.Invariants is set), deduplicated by (invariant, node) in
	// first-observation order.
	InvariantViolations []invariant.Violation
	// Load summarizes offered vs confirmed throughput and confirmation
	// latency when a pacing discipline was active (Offered or
	// ClosedLoopWindow); nil otherwise. Like the Report it is a pure
	// function of (config, seed).
	Load *load.Report
	// Backpressure samples per-stage queue depths (mempool depth, pending
	// block fetches, signing-lookahead occupancy) at the maintenance
	// boundaries; deterministic at any Parallelism.
	Backpressure []metrics.BackpressureStat
	// StoreStats samples the fleet-aggregated ledger counters (logical
	// entry ops) at the same maintenance boundaries. Unlike Backpressure
	// it rides OUTSIDE the determinism digest: the counters are identical
	// across Parallelism but legitimately differ with the connect cache on
	// vs off (a cache hit replays a delta instead of re-validating, a
	// different op sequence), while the Report does not.
	StoreStats []metrics.BackpressureStat
	// Revenue is each node's mining revenue at run end — the UTXO balance
	// of its reward address in the view of the reference node (the
	// lowest-index node running honest, so an attacker's private ledger
	// does not inflate its own score). Node addresses receive only
	// coinbase outputs (subsidy + fee shares, net of poison revocations),
	// so the balance IS the revenue.
	Revenue []types.Amount
}

// RevenueShare returns node's fraction of the total revenue distributed in
// the run; zero when nothing was distributed.
func (r *Result) RevenueShare(node int) float64 {
	if r.Revenue == nil || node < 0 || node >= len(r.Revenue) {
		return 0
	}
	var total types.Amount
	for _, v := range r.Revenue {
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(r.Revenue[node]) / float64(total)
}

// runner holds one assembled experiment: a facade over the harness kernel,
// whose Fleet (nodes, stores, engine, the scenario.Runtime a Config's
// Scenario scripts against) it embeds, plus what is the measured run's own —
// the workload and its paced views, the backpressure samplers, and the stop
// rule's payload kind.
type runner struct {
	*harness.Fleet
	cfg      Config
	workload *Workload
	views    []*WorkloadView
	bp       *metrics.Backpressure
	storeBP  *metrics.Backpressure
	payload  types.BlockKind // which kind counts toward TargetBlocks
	tracker  load.Tracker    // the reference node's main chain, on paced runs
}

// Run executes one experiment.
func Run(cfg Config) (*Result, error) {
	r, err := build(cfg)
	if err != nil {
		return nil, err
	}
	// Teardown runs only after every measurement (revenue ranges over the
	// UTXO stores) has been extracted into the Result.
	defer func() { _ = r.Close() }() // teardown: results are already extracted
	return r.run()
}

func build(cfg Config) (*runner, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("experiment: need at least 2 nodes")
	}
	if cfg.TargetBlocks <= 0 {
		cfg.TargetBlocks = 60
	}
	if cfg.TxSize <= 0 {
		cfg.TxSize = load.DefaultTxSize
	}
	if cfg.MaxSimTime <= 0 {
		cfg.MaxSimTime = 6 * time.Hour
	}
	if cfg.Scenario != nil && cfg.Scenario.Duration() > cfg.MaxSimTime {
		return nil, fmt.Errorf("experiment: scenario's last step at %v exceeds MaxSimTime %v",
			cfg.Scenario.Duration(), cfg.MaxSimTime)
	}
	shares, err := miningShares(cfg)
	if err != nil {
		return nil, err
	}

	// Engine selection: how many event-loop shards the run executes on.
	shards := cfg.Parallelism
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	shards = max(1, min(shards, cfg.Nodes))

	netCfg := simnet.DefaultConfig(cfg.Nodes, cfg.Seed)
	if cfg.BandwidthBPS > 0 {
		netCfg.BandwidthBPS = cfg.BandwidthBPS
	}

	paced := cfg.Offered > 0 || cfg.ClosedLoopWindow > 0
	maxTxs := int64(cfg.WorkloadCount)
	if maxTxs == 0 && !paced {
		// Classic methodology: a finite pre-sized workload, enough to keep
		// blocks full for the whole run plus slack.
		count := cfg.TargetBlocks * (cfg.Params.MaxBlockSize/cfg.TxSize + 1) * 3 / 2
		maxTxs = int64(max(count, 64))
	}
	workload, err := NewStreamWorkload(cfg.Seed, cfg.TxSize, cfg.StreamLanes, maxTxs)
	if err != nil {
		return nil, err
	}
	// A view's bitmap spans the release slack below the slowest view's
	// confirmed prefix and, allowing as much again in flight above it, is
	// sized for twice the slack, or for the whole stream when that is less.
	workload.viewBits = 2 * releaseSlack(cfg)
	if maxTxs > 0 {
		workload.viewBits = min(workload.viewBits, maxTxs)
	}
	keys, err := harness.Keys(cfg.Seed, 0x10000, cfg.Nodes)
	if err != nil {
		return nil, err
	}

	r := &runner{
		cfg:      cfg,
		workload: workload,
		bp:       metrics.NewBackpressure(),
		storeBP:  metrics.NewBackpressure(),
		payload:  protocol.Payload(cfg.Protocol),
	}
	r.Fleet, err = harness.New(harness.Spec{
		Protocol:            cfg.Protocol,
		Params:              cfg.Params,
		Genesis:             workload.Genesis,
		Seed:                cfg.Seed,
		Keys:                keys,
		Net:                 netCfg,
		Shards:              shards,
		StoreURL:            cfg.StoreURL,
		StoreName:           func(i int) string { return fmt.Sprintf("n%04d", i) },
		MinerStream:         0x20000,
		Censors:             cfg.Censors,
		Strategies:          cfg.Strategies,
		DisableConnectCache: cfg.DisableConnectCache,
		Invariants:          cfg.Invariants,
		// Every incarnation of node i draws from the same paced workload
		// view, created (nodes boot in index order) on its first boot.
		Wire: func(i int, base *node.Base) {
			if i == len(r.views) {
				view := workload.NewView()
				if cfg.Offered > 0 {
					view.SetOpenLoop(cfg.Offered, base.Env.Now)
				} else if cfg.ClosedLoopWindow > 0 {
					view.SetClosedLoop(int64(cfg.ClosedLoopWindow))
				}
				r.views = append(r.views, view)
			}
			base.Pool = r.views[i]
		},
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	totalRate := 1.0 / cfg.Params.TargetBlockInterval.Seconds()
	for i, n := range r.Nodes() {
		n.Miner.SetRate(shares[i] * totalRate)
	}
	return r, nil
}

// miningShares resolves each node's fraction of the network's mining power:
// Config.MiningShares normalized over their sum, or the paper's exponential
// rank distribution.
func miningShares(cfg Config) ([]float64, error) {
	if cfg.MiningShares == nil {
		return mining.ExponentialShares(cfg.Nodes, mining.DefaultExponent), nil
	}
	if len(cfg.MiningShares) != cfg.Nodes {
		return nil, fmt.Errorf("experiment: %d mining shares for %d nodes",
			len(cfg.MiningShares), cfg.Nodes)
	}
	var sum float64
	for _, s := range cfg.MiningShares {
		if s < 0 {
			return nil, fmt.Errorf("experiment: negative mining share %v", s)
		}
		sum += s
	}
	if sum <= 0 {
		return nil, fmt.Errorf("experiment: mining shares sum to zero")
	}
	normalized := make([]float64, cfg.Nodes)
	for i, s := range cfg.MiningShares {
		normalized[i] = s / sum
	}
	return normalized, nil
}

func (r *runner) run() (*Result, error) {
	//nglint:allow detflow WallTime reaches only the operator-facing stats block of FprintRunStats, never digests or reports that are diffed across runs
	startWall := time.Now() //nglint:allow walltime measures real runtime for Result.WallTime (operator info); never feeds the simulation
	var scenarioUntil time.Duration
	if r.cfg.Scenario != nil {
		scenarioUntil = r.cfg.Scenario.Duration()
		r.Schedule(r.cfg.Scenario, nil)
	}
	for _, n := range r.Nodes() {
		n.Miner.Start()
	}
	// Advance in slices, checking the stop rule between them. The slicing is
	// part of a run's observable schedule (the run ends at a slice
	// boundary), so both engines use identical slices: the sharded engine
	// subdivides them into lookahead windows internally.
	step := r.cfg.Params.TargetBlockInterval / 4
	if r.payload == types.KindMicro && r.cfg.Params.MicroblockInterval < step {
		step = r.cfg.Params.MicroblockInterval
	}
	if step <= 0 {
		step = time.Second
	}
	// Online invariant checks happen at slice boundaries, which both engines
	// hit at identical virtual times, so violation timestamps (and therefore
	// reports) stay byte-identical across engine choices.
	checkEvery := r.CheckInterval(r.cfg.InvariantInterval)
	nextCheck := checkEvery
	for r.Now() < r.cfg.MaxSimTime {
		if r.Now() >= scenarioUntil &&
			r.Collector().CountKind(r.payload) >= r.cfg.TargetBlocks {
			break
		}
		r.Run(step)
		if r.Now() >= nextCheck {
			// Slice boundaries are quiescent on both engines, so invariant
			// checks and workload maintenance (release floor, backpressure
			// sampling) observe identical state at identical virtual times.
			r.Check(false)
			r.maintain()
			for nextCheck <= r.Now() {
				nextCheck += checkEvery
			}
		}
	}
	// Stop mining and let in-flight blocks propagate.
	for _, n := range r.Nodes() {
		n.Miner.Stop()
	}
	grace := r.cfg.Grace
	if grace <= 0 {
		grace = 30 * time.Second
	}
	r.Run(grace)

	end := r.Now()
	r.Check(true)
	r.maintain()
	return &Result{
		Config:   r.cfg,
		Report:   r.Report(),
		NetStats: r.NetStats(),
		Events:   r.Events(),
		//nglint:allow detflow WallTime reaches only the operator-facing stats block of FprintRunStats, never digests or reports that are diffed across runs
		WallTime:            time.Since(startWall), //nglint:allow walltime measures real runtime for Result.WallTime (operator info); never feeds the simulation
		SimTime:             end,
		ScenarioErrors:      r.ScenarioErrors(),
		InvariantViolations: r.InvariantViolations(),
		Load:                r.loadReport(end),
		Backpressure:        r.bp.Stats(),
		StoreStats:          r.storeBP.Stats(),
		Revenue:             r.revenue(),
	}, nil
}

// maintain runs at quiescent slice boundaries: it samples the backpressure
// counters, advances a paced run's load tracker before maintainStores evicts
// bodies, and advances the stream's release floor to the slowest view's
// confirmed prefix minus a reorg slack, freeing confirmed transactions and
// compacting view bitmaps so long runs hold only the in-flight window.
func (r *runner) maintain() {
	stream := r.workload.Stream()
	minPrefix := stream.Generated()
	maxDepth := 0
	for _, v := range r.views {
		if p := v.ConfirmedPrefix(); p < minPrefix {
			minPrefix = p
		}
		if d := v.Len(); d > maxDepth {
			maxDepth = d
		}
	}
	fetches, relayQueue := 0, 0
	for _, n := range r.Nodes() {
		if n.Down {
			continue // a crashed node's abandoned client has no live queues
		}
		fetches += n.Base().Gossip.PendingFetches()
		relayQueue += n.Base().Gossip.QueuedTxs()
	}
	r.bp.Record("mempool-depth-max", float64(maxDepth))
	r.bp.Record("pending-fetches", float64(fetches))
	r.bp.Record("relay-queue", float64(relayQueue))
	r.bp.Record("lookahead-occupancy", float64(stream.Occupancy()))
	if r.cfg.Offered > 0 || r.cfg.ClosedLoopWindow > 0 {
		r.tracker.Advance(r.referenceNode().Base().State.Tip())
	}
	r.maintainStores()

	if floor := minPrefix - releaseSlack(r.cfg); floor > 0 {
		stream.Release(floor)
		released := stream.Released()
		for _, v := range r.views {
			v.Compact(released)
		}
	}
}

// releaseSlack is how far the stream's release floor stays below the slowest
// view's confirmed prefix: four blockfuls, enough confirmed history to survive
// any reorg a scenario can plausibly cause before the next maintenance
// boundary.
func releaseSlack(cfg Config) int64 {
	return int64(4 * (cfg.Params.MaxBlockSize/cfg.TxSize + 1))
}

// maintainStores runs inside maintain, at the same quiescent boundaries: it
// samples the fleet-aggregated ledger counters into the store backpressure
// series, syncs each live node's chain index, and — when CompactDepth is set —
// evicts its deep chain history so resident state stays bounded on long runs.
func (r *runner) maintainStores() {
	var agg utxo.Stats
	for _, n := range r.Nodes() {
		agg.Add(n.UTXO.Stats())
	}
	r.storeBP.Record("store-gets", float64(agg.Gets))
	r.storeBP.Record("store-puts", float64(agg.Puts))
	r.storeBP.Record("store-deletes", float64(agg.Deletes))

	for _, n := range r.Nodes() {
		// A down node's stores are left alone, as the crash left them, until
		// the next Restart resets its ledger and replays its index.
		if n.Down {
			continue
		}
		if err := n.Index.Sync(); err != nil {
			panic(fmt.Sprintf("experiment: node %d: index sync: %v", n.ID, err))
		}
		if r.cfg.CompactDepth > 0 {
			n.Base().State.Compact(r.cfg.CompactDepth)
		}
	}
}

// loadReport summarizes offered vs confirmed throughput when a pacing
// discipline was active, from the reference node's final main chain. It reads
// the tracker, which maintain advanced at every boundary while the joining
// bodies were resident, after one more Advance to the final tip (a change of
// reference node after a crash is a reorg to its chain).
func (r *runner) loadReport(end time.Duration) *load.Report {
	if r.cfg.Offered <= 0 && r.cfg.ClosedLoopWindow <= 0 {
		return nil
	}
	stream := r.workload.Stream()
	r.tracker.Advance(r.referenceNode().Base().State.Tip())
	mode, offered := load.Closed, stream.Generated()
	if r.cfg.Offered > 0 {
		mode = load.Open
		if due := load.OfferedAt(r.cfg.Offered, int64(end)); due > offered {
			offered = due
		}
	}
	return load.BuildReport(mode, r.cfg.Offered, int64(r.cfg.ClosedLoopWindow),
		end, offered, stream.Generated(), r.tracker.Confirmations())
}

// revenue reads every node's reward-address balance in the view of the
// reference node, so an attacker's withheld private ledger never inflates
// its own score. One pass over the reference UTXO set covers every address —
// paper-scale runs have a thousand of them.
func (r *runner) revenue() []types.Amount {
	nodeOf := make(map[crypto.Address]int, r.Size())
	for i, n := range r.Nodes() {
		nodeOf[n.Key.Public().Addr()] = i
	}
	out := make([]types.Amount, r.Size())
	r.referenceNode().Base().State.UTXO().Range(func(_ types.OutPoint, e utxo.Entry) bool {
		if i, ok := nodeOf[e.To]; ok && !e.Revoked {
			out[i] += e.Value
		}
		return true
	})
	return out
}

// referenceNode picks the lowest-index running node whose LIVE strategy is
// honest (a scenario may have adopted an attack strategy mid-run; a crashed
// node's frozen chain is no observer), falling back to node 0 on
// all-adversarial runs: the observer whose chain the revenue and load
// measurements read.
func (r *runner) referenceNode() *harness.Node {
	for _, n := range r.Nodes() {
		if !n.Down && n.StrategyName() == strategy.HonestName {
			return n
		}
	}
	return r.Nodes()[0]
}
