package bitcoinng

import (
	"time"

	"bitcoinng/internal/experiment"
	"bitcoinng/internal/invariant"
	"bitcoinng/internal/protocol"
)

// Option configures node assembly for both harness entry points: New
// (interactive clusters) and NewExperiment (measured runs). One option
// vocabulary serves both; options that only apply to one harness (noted on
// each) are ignored by the other.
type Option func(*options)

type options struct {
	protocol      Protocol
	seed          int64
	params        Params
	paramsSet     bool
	autoMine      bool
	fund          Amount
	censors       []int
	strategies    map[int]string
	scenario      *Scenario
	workloadCount int
	txSize        int
	targetBlocks  int
	cacheOff      bool
	parallelism   int
	invariants    []invariant.Invariant
	invInterval   time.Duration
	storeURL      string
	compactDepth  uint64
}

func defaultOptions() options {
	return options{protocol: BitcoinNG, seed: 1, autoMine: true}
}

// WithProtocol selects the registered protocol to run; default BitcoinNG.
func WithProtocol(p Protocol) Option { return func(o *options) { o.protocol = p } }

// WithSeed makes the run deterministic from seed; default 1.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithParams sets the consensus parameters; default DefaultParams with
// difficulty retargeting off (the scheduler sets rates).
func WithParams(p Params) Option {
	return func(o *options) { o.params, o.paramsSet = p, true }
}

// WithAutoMine toggles simulated miners with power following the paper's
// exponential rank distribution; default on for clusters. Pass false to
// script who mines when via MineBlock. Experiments always mine.
func WithAutoMine(on bool) Option { return func(o *options) { o.autoMine = on } }

// WithFunding pre-funds every cluster node's wallet from genesis
// (spendable immediately). Cluster-only: experiments pre-load a workload
// instead.
func WithFunding(perNode Amount) Option { return func(o *options) { o.fund = perNode } }

// WithScenario arms a scripted scenario at virtual time zero: partitions,
// churn, leader equivocation, latency spikes. Cluster.Play runs further
// scenarios relative to the current time.
func WithScenario(s *Scenario) Option { return func(o *options) { o.scenario = s } }

// WithCensors marks nodes that, while leading, publish empty microblocks —
// the §5.2 "Censorship Resistance" DoS behaviour whose influence ends with
// the next honest key block. Out-of-range indices are rejected at build
// time.
func WithCensors(nodes ...int) Option { return func(o *options) { o.censors = nodes } }

// WithStrategy assigns one node a registered mining strategy (the
// internal/strategy engine: "honest", "selfish", "greedymine", "feethief",
// or any custom registration) from build time onward; unassigned nodes run
// honest. Repeat the option per adversarial node. Unknown names and
// out-of-range indices are rejected at build time; the scenario step
// AdoptStrategy switches strategies mid-run instead.
func WithStrategy(node int, name string) Option {
	return func(o *options) {
		if o.strategies == nil {
			o.strategies = make(map[int]string)
		}
		o.strategies[node] = name
	}
}

// WithWorkload sizes the pre-loaded artificial transaction workload: count
// transactions of txSize bytes each (§7 "No Transaction Propagation").
// Experiment-only: clusters submit transactions from wallets.
func WithWorkload(count, txSize int) Option {
	return func(o *options) { o.workloadCount, o.txSize = count, txSize }
}

// WithTargetBlocks stops an experiment once this many payload blocks exist;
// the paper uses 50-100. Experiment-only.
func WithTargetBlocks(n int) Option { return func(o *options) { o.targetBlocks = n } }

// WithParallelism sets how many event-loop shards an experiment executes on
// (sim.ShardedLoop's conservative windowed engine): 0, the default, takes
// GOMAXPROCS; 1 recovers the classic single-threaded loop. Reports are
// byte-identical at any value for the same seed — parallelism changes wall
// time, never results. Experiment-only: interactive clusters stay
// single-threaded.
func WithParallelism(n int) Option { return func(o *options) { o.parallelism = n } }

// WithConnectCache toggles the shared content-addressed connect cache
// (default on): when on, nodes with identical validation rules replay each
// block's memoized UTXO delta instead of re-validating it. Results are
// byte-identical either way; pass false for determinism cross-checks or to
// measure the uncached baseline.
func WithConnectCache(on bool) Option { return func(o *options) { o.cacheOff = !on } }

// WithInvariants arms online invariant checking on both harnesses: the
// given catalogue (see Invariant, DefaultInvariants) is evaluated against
// every node's chain state at regular virtual-time ticks and at run end.
// Violations accumulate (Cluster.InvariantViolations /
// ExperimentResult.InvariantViolations) without stopping the run. Checks
// are read-only and deterministic, so experiment reports stay
// byte-identical with or without them, at any parallelism.
func WithInvariants(invs ...Invariant) Option {
	return func(o *options) { o.invariants = append(o.invariants, invs...) }
}

// WithStore selects every node's storage backend — chain index and UTXO
// ledger — by locator: "" or "mem:" for the RAM-bound fast path (default),
// "file:<dir>" for file backends rooted at dir, "file:" for a throwaway
// temporary root. Experiment reports are byte-identical across backends for
// the same (config, seed); only Result.StoreStats differs. A cluster built
// over a "file:<dir>" root that already holds chains (same seed and size)
// resumes from them like a process restart; an experiment refuses such a
// root. Both harnesses.
func WithStore(locator string) Option { return func(o *options) { o.storeURL = locator } }

// WithCompactDepth bounds resident chain state on long experiment runs: at
// every maintenance boundary each node evicts archived block bodies and undo
// records buried at least depth below its tip (bodies reload transparently
// from the chain index). Pick it well above any reorg the run can produce.
// Combined with a file-backed WithStore this is the beyond-RAM mode.
// Experiment-only.
func WithCompactDepth(depth uint64) Option { return func(o *options) { o.compactDepth = depth } }

// WithInvariantInterval spaces the online invariant checks; the default is
// the key-block interval.
func WithInvariantInterval(d time.Duration) Option {
	return func(o *options) { o.invInterval = d }
}

// New builds an interactive cluster of n nodes from functional options —
// the primary cluster entry point:
//
//	c, err := bitcoinng.New(10,
//		bitcoinng.WithParams(params),
//		bitcoinng.WithFunding(100_000),
//		bitcoinng.WithScenario(bitcoinng.NewScenario(
//			bitcoinng.At(time.Minute, bitcoinng.Partition([]int{0, 1, 2})),
//			bitcoinng.At(3*time.Minute, bitcoinng.Heal()),
//		)))
//
// Nothing runs until Run or Play advances virtual time.
func New(n int, opts ...Option) (*Cluster, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return NewCluster(ClusterConfig{
		Protocol:            o.protocol,
		Nodes:               n,
		Seed:                o.seed,
		Params:              o.params,
		FundPerNode:         o.fund,
		AutoMine:            o.autoMine,
		Censors:             o.censors,
		Strategies:          o.strategies,
		Scenario:            o.scenario,
		DisableConnectCache: o.cacheOff,
		Invariants:          o.invariants,
		InvariantInterval:   o.invInterval,
		StoreURL:            o.storeURL,
	})
}

// NewExperiment builds a measured-run configuration for n nodes from the
// same option vocabulary as New; pass the result to RunExperiment (after
// any direct field tweaks — the config struct stays fully exported).
func NewExperiment(n int, opts ...Option) ExperimentConfig {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	cfg := experiment.DefaultConfig(o.protocol, n, o.seed)
	if o.paramsSet {
		cfg.Params = o.params
	}
	if o.workloadCount > 0 {
		cfg.WorkloadCount = o.workloadCount
	}
	if o.txSize > 0 {
		cfg.TxSize = o.txSize
	}
	if o.targetBlocks > 0 {
		cfg.TargetBlocks = o.targetBlocks
	}
	cfg.Censors = o.censors
	cfg.Strategies = o.strategies
	cfg.Scenario = o.scenario
	cfg.DisableConnectCache = o.cacheOff
	cfg.Parallelism = o.parallelism
	cfg.Invariants = o.invariants
	cfg.InvariantInterval = o.invInterval
	cfg.StoreURL = o.storeURL
	cfg.CompactDepth = o.compactDepth
	return cfg
}

// The invariant engine, re-exported so callers compose catalogues without
// importing internal packages.
type (
	// Invariant is one online-checkable safety property; see
	// DefaultInvariants for the built-in catalogue.
	Invariant = invariant.Invariant
	// InvariantViolation is one recorded failure.
	InvariantViolation = invariant.Violation
	// InvariantOptions tunes the built-in catalogue.
	InvariantOptions = invariant.Options
)

// DefaultInvariants returns the built-in catalogue: UTXO value
// conservation, the §4.4 fee split, single leadership per epoch, the honest
// fork bound, intra-partition consistency, and post-heal convergence.
func DefaultInvariants(opts InvariantOptions) []Invariant {
	return invariant.Defaults(opts)
}

// The protocol registry, re-exported so new protocols plug into every
// harness (New, NewCluster, RunExperiment, cmd/) without touching them.
type (
	// ProtocolClient is a running consensus node: the surface every
	// harness drives. Optional capabilities (protocol.Leader,
	// protocol.Equivocator, ...) are discovered by interface assertion.
	ProtocolClient = protocol.Client
	// ProtocolSpec carries everything a client constructor needs.
	ProtocolSpec = protocol.Spec
	// ProtocolRegistration describes one protocol implementation: its
	// constructor and which block kind carries its transaction payload.
	ProtocolRegistration = protocol.Registration
)

// ErrUnknownProtocol is returned (wrapped) by every harness when asked for
// an unregistered protocol name.
var ErrUnknownProtocol = protocol.ErrUnknownProtocol

// RegisterProtocol adds a protocol implementation under name; it then runs
// under every harness. Registration errors on duplicates.
func RegisterProtocol(name Protocol, reg ProtocolRegistration) error {
	return protocol.Register(name, reg)
}

// RegisteredProtocols returns the registered protocol names, sorted.
func RegisteredProtocols() []string { return protocol.Names() }
