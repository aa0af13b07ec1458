package harness

import (
	"fmt"
	"time"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/invariant"
	"bitcoinng/internal/metrics"
	"bitcoinng/internal/mining"
	"bitcoinng/internal/node"
	"bitcoinng/internal/protocol"
	"bitcoinng/internal/scenario"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/store"
	"bitcoinng/internal/strategy"
	"bitcoinng/internal/types"
	"bitcoinng/internal/validate"
)

// Spec is everything a facade hands the kernel to assemble a fleet. The
// streams and names are fixed per facade, not user knobs: committed chaos
// seeds, golden digests, and existing state directories all depend on each
// facade's random streams and on-disk layout staying what they are.
type Spec struct {
	Protocol protocol.Protocol
	Params   types.Params
	Genesis  *types.PowBlock
	Seed     int64
	// Keys holds one identity key per node (see Keys); its length is the
	// network size and must match Net.Nodes.
	Keys []*crypto.PrivateKey
	// Net is the network model; Shards the number of event-loop shards it
	// runs on (≤ 1 is the sequential loop).
	Net    simnet.Config
	Shards int
	// StoreURL is the internal/store locator for every node's chain index;
	// StoreName labels node i's index under that root.
	StoreURL  string
	StoreName func(i int) string
	// Resume lets a fleet come up over chain indexes that already hold
	// blocks, each node recovering its prefix like a process restart with the
	// clock at the latest persisted timestamp. Without it a used store root
	// is an error: a measured run starts at genesis and t=0.
	Resume bool
	// MinerStream is the sim.NewRand stream base of the per-node miners.
	MinerStream uint64
	Censors     []int
	Strategies  map[int]string
	// DisableConnectCache makes every node re-validate every block locally
	// instead of sharing validate.Shared().
	DisableConnectCache bool
	// Invariants, when non-empty, are what Check evaluates.
	Invariants []invariant.Invariant
	// Wire, if set, finishes wiring node i's freshly built core on every
	// boot (first build and each Restart), before the archive replays.
	Wire func(i int, base *node.Base)
}

// Keys draws n node identity keys from the seed's streams base, base+1, ...
func Keys(seed int64, base uint64, n int) ([]*crypto.PrivateKey, error) {
	keys := make([]*crypto.PrivateKey, n)
	for i := range keys {
		k, err := crypto.GenerateKey(sim.NewRand(seed, base+uint64(i)))
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}

// Node is one node's record. Everything but Client survives a crash: the
// env (so its random stream continues where it left off), key, miner (ditto),
// and the durable stores.
type Node struct {
	ID  int
	Key *crypto.PrivateKey
	// Client is the current incarnation; Restart replaces it.
	Client protocol.Client
	Miner  *mining.Miner
	// Index is the crash-surviving chain index: persistence hook, invariant
	// read surface, body archive, and replay source. The ledger is the
	// client's chain state's own, re-derived from it on every boot.
	Index store.ChainIndex
	Down  bool
	// LastRestart is the virtual time of the latest Restart (0 = never).
	LastRestart int64

	env *simnet.NodeEnv
}

// Base returns the current incarnation's protocol-independent core.
func (n *Node) Base() *node.Base { return n.Client.Base() }

// IsLeader reports whether the node currently leads (Bitcoin and GHOST
// nodes never do).
func (n *Node) IsLeader() bool {
	ng := n.Client.NG()
	return ng != nil && ng.IsLeader()
}

// StrategyName returns the node's live mining strategy; "honest" for
// Bitcoin and GHOST, which have none.
func (n *Node) StrategyName() string {
	if ng := n.Client.NG(); ng != nil {
		return ng.StrategyName()
	}
	return strategy.HonestName
}

// Fleet is one emulated network: nodes, stores, engine, network model, and
// metrics collector. It implements scenario.Runtime (runtime.go). All methods
// must be called from one goroutine, at quiescent points — between Run
// slices, or from callbacks armed with After/Schedule.
type Fleet struct {
	spec      Spec
	eng       engine
	net       *simnet.Network
	collector *metrics.Collector
	recorders []node.Recorder // per shard
	factory   *store.Factory
	censors   map[int]bool
	cache     *validate.Cache
	nodes     []*Node
	inv       *invariant.Engine
	scenErrs  []error

	// partition is the current group assignment (nil while the network is
	// whole); lastDisruption timestamps the most recent partition, heal,
	// latency rescale, strategy switch, crash, or restart, which gates the
	// consistency invariants' settle grace.
	partition      []int
	lastDisruption int64
}

var _ scenario.Runtime = (*Fleet)(nil)

// New assembles the fleet. Nothing runs until Run. Errors are left
// unprefixed for the facade to wrap with its package name.
func New(spec Spec) (*Fleet, error) {
	n := len(spec.Keys)
	censors := make(map[int]bool, len(spec.Censors))
	for _, id := range spec.Censors {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("censor node %d out of range (network size %d)", id, n)
		}
		censors[id] = true
	}
	// Validate the assignment up front; every boot instantiates its own.
	if _, err := strategy.ForNodes(n, spec.Strategies); err != nil {
		return nil, err
	}
	factory, err := store.NewFactory(spec.StoreURL)
	if err != nil {
		return nil, err
	}
	f := &Fleet{spec: spec, factory: factory, censors: censors}
	if !spec.DisableConnectCache {
		f.cache = validate.Shared()
	}
	if len(spec.Invariants) > 0 {
		f.inv = invariant.NewEngine(spec.Invariants...)
	}
	// Chain indexes open before the engine exists: a resumed fleet starts the
	// virtual clock at the latest persisted timestamp — block time or local
	// arrival time, whichever is later (a real node's wall clock keeps
	// running across restarts) — or every freshly mined block would violate
	// median-time-past against the recovered prefix until the clock caught up.
	var clock int64
	for i := 0; i < n; i++ {
		index, err := factory.NewChainIndex(spec.StoreName(i))
		if err != nil {
			return nil, f.abandon(fmt.Errorf("node %d chain index: %w", i, err))
		}
		f.nodes = append(f.nodes, &Node{ID: i, Key: spec.Keys[i], Index: index})
		if index.Len() == 0 {
			continue
		}
		if !spec.Resume {
			return nil, f.abandon(fmt.Errorf("store %s already holds a %d-block chain for node %d; "+
				"a measured run must start at genesis and t=0 — use a fresh root", spec.StoreURL, index.Len(), i))
		}
		clock = max(clock, index.Latest())
	}
	f.eng, f.net = newEngine(spec.Net, spec.Shards, clock)
	f.collector = metrics.NewCollector(spec.Genesis, 0)
	f.recorders = []node.Recorder{f.collector}
	if shards := f.eng.shards(); shards > 1 {
		sharded := metrics.NewSharded(f.collector, shards)
		f.eng.onBarrier(sharded.Flush)
		f.recorders = make([]node.Recorder, shards)
		for s := range f.recorders {
			f.recorders[s] = sharded.Shard(s)
		}
	}
	for i, nd := range f.nodes {
		loop := f.eng.loop(f.eng.shardOf(i))
		nd.env = simnet.NewNodeEnv(loop, f.net, i, spec.Seed)
		if err := f.boot(nd); err != nil {
			return nil, f.abandon(fmt.Errorf("node %d: %w", i, err))
		}
		// The closure reads the record, so a Restart's replacement client
		// takes over mining without touching the miner (whose stream must
		// keep drawing from where it was). Finds while the node is down are
		// discarded — a crashed box mines nothing.
		nd.Miner = mining.NewMiner(loop, sim.NewRand(spec.Seed, spec.MinerStream+uint64(i)), func() {
			if !nd.Down {
				nd.Client.MineBlock()
			}
		})
	}
	return f, nil
}

// boot (re)builds nd's client through Boot — same key, env, recorder, censor
// flag, and CONFIGURED strategy (a mid-run AdoptStrategy does not survive a
// crash) — and routes the node's deliveries to it.
func (f *Fleet) boot(nd *Node) error {
	strat, err := strategy.New(f.spec.Strategies[nd.ID])
	if err != nil {
		return err
	}
	client, err := Boot(nd.env, protocol.Spec{Protocol: f.spec.Protocol, Config: node.Config{
		Params:             f.spec.Params,
		Key:                nd.Key,
		Genesis:            f.spec.Genesis,
		Recorder:           f.recorders[f.eng.shardOf(nd.ID)],
		SimulatedMining:    true,
		CensorTransactions: f.censors[nd.ID],
		ConnectCache:       f.cache,
		Blocks:             f.factory.Blocks(),
		Strategy:           strat,
	}}, nd.Index, func(base *node.Base) {
		if f.spec.Wire != nil {
			f.spec.Wire(nd.ID, base)
		}
	})
	if err != nil {
		return err
	}
	nd.Client = client
	nd.env.Deliver(client.HandleMessage)
	return nil
}

// abandon releases whatever a failed New opened, best-effort, and returns err.
func (f *Fleet) abandon(err error) error {
	_ = f.Close() // the build error is the one worth reporting
	return err
}

// Close closes every node's chain index — syncing a file-backed one so a
// later fleet over the same root resumes from it — removes an ephemeral
// "file:" root, and stops the engine's workers. The fleet is unusable
// afterwards. It returns the first error.
func (f *Fleet) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, nd := range f.nodes {
		keep(nd.Index.Close())
	}
	keep(f.factory.Close())
	if f.eng != nil {
		f.eng.close()
	}
	return first
}

// Nodes returns the per-node records, indexed by node id.
func (f *Fleet) Nodes() []*Node { return f.nodes }

// Collector returns the fleet's metrics collector (read it at quiescent
// points only).
func (f *Fleet) Collector() *metrics.Collector { return f.collector }

// Now returns the current virtual time.
func (f *Fleet) Now() time.Duration { return time.Duration(f.eng.now()) }

// Events returns the number of simulation events executed so far.
func (f *Fleet) Events() uint64 { return f.eng.executed() }

// Run advances virtual time by d, processing everything scheduled within it.
func (f *Fleet) Run(d time.Duration) { f.eng.runFor(d) }

// After arms a driver-level callback d from now; it fires with every shard
// aligned at that instant and may touch any node or the network.
func (f *Fleet) After(d time.Duration, fn func()) { f.eng.scheduleAt(f.eng.now()+int64(d), fn) }

// Schedule arms the scenario's steps at their offsets from the current
// virtual time, acting on this fleet. Each step failure is recorded (see
// ScenarioErrors) and, when own is non-nil, reported to it as well; it does
// not stop the remaining steps.
func (f *Fleet) Schedule(s *scenario.Scenario, own func(error)) {
	s.Schedule(f.After, f, func(ts scenario.TimedStep, err error) {
		err = fmt.Errorf("harness: scenario step %q at %v: %w", ts.Step.Name, ts.Offset, err)
		f.scenErrs = append(f.scenErrs, err)
		if own != nil {
			own(err)
		}
	})
}

// ScenarioErrors returns every scenario step failure observed so far, in
// firing order.
func (f *Fleet) ScenarioErrors() []error { return f.scenErrs }

// Report computes the §6 metrics for everything observed so far.
func (f *Fleet) Report() *metrics.Report {
	return f.collector.Analyze(metrics.DefaultAnalyzeOptions(f.eng.now()))
}

// NetStats merges the emulated network's counters — volume, partition and
// crash losses, and the lossy-link fault totals — into one network-wide view.
func (f *Fleet) NetStats() simnet.Stats { return f.net.Stats() }

// Snapshot assembles the invariant engine's view of every node.
func (f *Fleet) Snapshot(final bool) *invariant.Snapshot {
	s := &invariant.Snapshot{
		Now:            f.eng.now(),
		Final:          final,
		Params:         f.spec.Params,
		Partitioned:    f.partition != nil,
		LastDisruption: f.lastDisruption,
		Nodes:          make([]invariant.NodeState, len(f.nodes)),
	}
	for i, nd := range f.nodes {
		group := 0
		if f.partition != nil {
			group = f.partition[i]
		}
		s.Nodes[i] = invariant.NodeState{
			ID:          i,
			Chain:       nd.Base().State,
			Strategy:    nd.StrategyName(),
			Group:       group,
			Down:        nd.Down,
			LastRestart: nd.LastRestart,
			Durable:     nd.Index,
		}
	}
	return s
}

// Check evaluates the configured invariants against a snapshot — final for a
// full-history check — and is a no-op when none were configured.
func (f *Fleet) Check(final bool) {
	if f.inv != nil {
		f.inv.Check(f.Snapshot(final))
	}
}

// InvariantViolations returns every invariant violation recorded so far,
// deduplicated by (invariant, node) in first-observation order; nil when no
// invariants were configured.
func (f *Fleet) InvariantViolations() []invariant.Violation {
	if f.inv == nil {
		return nil
	}
	return f.inv.Violations()
}

// CheckInterval resolves a configured invariant-check spacing: zero takes the
// key-block interval, and degenerate params never re-arm at +0.
func (f *Fleet) CheckInterval(configured time.Duration) time.Duration {
	if configured > 0 {
		return configured
	}
	if d := f.spec.Params.TargetBlockInterval; d > 0 {
		return d
	}
	return time.Second
}
