package bitcoinng

import (
	"fmt"
	"time"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/harness"
	"bitcoinng/internal/invariant"
	"bitcoinng/internal/load"
	"bitcoinng/internal/mempool"
	"bitcoinng/internal/mining"
	"bitcoinng/internal/node"
	"bitcoinng/internal/protocol"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wallet"
)

// ClusterConfig describes an interactive in-process network.
//
// Deprecated: prefer New with functional options (WithParams, WithAutoMine,
// WithScenario, ...); NewCluster remains as a thin shim over the same
// assembly path.
type ClusterConfig struct {
	// Protocol selects the client implementation; default BitcoinNG.
	Protocol Protocol
	// Nodes is the network size (≥ 2).
	Nodes int
	// Seed makes the cluster deterministic.
	Seed int64
	// Params are the consensus parameters; zero value takes DefaultParams.
	Params Params
	// FundPerNode pre-funds every node's wallet with this amount from
	// genesis (spendable immediately).
	FundPerNode Amount
	// AutoMine attaches simulated miners with power following the paper's
	// exponential rank distribution; without it, call Node(i).MineBlock
	// manually.
	AutoMine bool
	// Censors lists node indices that, while leading, publish empty
	// microblocks — the §5.2 "Censorship Resistance" DoS behaviour whose
	// influence ends with the next honest key block. Bitcoin-NG only.
	Censors []int
	// Strategies assigns mining strategies (internal/strategy) by node
	// index; unlisted nodes run honest. Bitcoin-NG only.
	Strategies map[int]string
	// Scenario, if set, is armed at build time: each step fires at its
	// offset from virtual time zero as Run advances the clock. Use
	// Cluster.Play to run a scenario relative to the current time instead.
	Scenario *Scenario
	// DisableConnectCache turns off the shared connect cache so every node
	// re-validates every block locally; results are identical either way.
	DisableConnectCache bool
	// Invariants, when non-empty, are checked online against every node's
	// chain state every InvariantInterval of virtual time (and on demand via
	// CheckInvariants). Violations accumulate in InvariantViolations.
	Invariants []invariant.Invariant
	// InvariantInterval spaces the online checks; zero takes the key-block
	// interval.
	InvariantInterval time.Duration
	// RelayTxs enables loose-transaction relay on every node (live-network
	// behavior): submitted transactions gossip to peers, batched per
	// Params.TxBatchInterval. Without it only the submitted-to node pools a
	// transaction (the paper's §7 methodology).
	RelayTxs bool
	// StreamLoad, when non-nil, endows genesis with a lane-chained
	// transaction stream (internal/load) so Blast can drive sustained load
	// against the cluster.
	StreamLoad *StreamLoadConfig
	// MempoolLimits bounds every node's mempool (bounded admission with
	// fee-rate eviction); zero keeps pools unbounded.
	MempoolLimits mempool.Limits
	// BandwidthBPS overrides the network model's per-pair bandwidth; zero
	// keeps the paper's 100 kbit/s.
	BandwidthBPS float64
	// StoreURL selects every node's chain index via the internal/store
	// locator syntax (the UTXO ledger is in memory under every locator, and
	// each boot rebuilds it from the index): "" or "mem:" for the
	// RAM-bound fast path, "file:<dir>" for file backends rooted at dir,
	// "file:" for a throwaway temporary root removed by Close. Under
	// "file:<dir>" every node keeps a durable block archive at
	// dir/node-<i>.blocks (each record a block with its arrival time), so
	// Crash/Restart recover from real files (and a damaged file recovers its
	// longest valid prefix); on "mem:" archives survive simulated crashes
	// only.
	StoreURL string
}

// StreamLoadConfig sizes the cluster's sustained-load stream.
type StreamLoadConfig struct {
	// TxSize is the uniform stream transaction size; zero takes
	// load.DefaultTxSize, §7's 476 bytes.
	TxSize int
	// Lanes is the chain parallelism; zero takes load.DefaultLanes.
	Lanes int
	// MaxTxs caps the stream; zero leaves it effectively unbounded.
	MaxTxs int64
}

// Cluster is an interactive emulated network: a facade over the harness
// kernel, whose Fleet it embeds — Run, Now, Size, Report, NetStats, Events,
// Close, ScenarioErrors, InvariantViolations, and the whole Scenario Runtime
// (Partition, Heal, SetMiningRate, ScaleLatency, AdoptStrategy, Equivocate,
// Crash, Restart, SetLoss, Leader) are the kernel's, so scripted steps act on
// a cluster and on a measured experiment through the same code. All methods
// must be called from one goroutine; time only advances inside Run, Play, and
// Blast. Clusters on in-memory stores (the default) need not call Close.
type Cluster struct {
	*harness.Fleet
	cfg    ClusterConfig
	nodes  []*ClusterNode
	stream *load.Stream
}

// ClusterNode is one node handle; it stays valid across Crash/Restart.
type ClusterNode struct {
	n      *harness.Node
	wallet *wallet.Wallet
}

// NewCluster builds the network, funds wallets, and (with AutoMine) arms
// miners. Nothing runs until Run is called. Built over a "file:<dir>" StoreURL
// that already holds chains (same seed and size), every node resumes from its
// persisted prefix like a process restart.
//
// Deprecated: use New with functional options.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("bitcoinng: cluster needs at least 2 nodes")
	}
	if cfg.Protocol == "" {
		cfg.Protocol = BitcoinNG
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
		cfg.Params.RetargetWindow = 0
	}
	netCfg := simnet.DefaultConfig(cfg.Nodes, cfg.Seed)
	if cfg.BandwidthBPS > 0 {
		netCfg.BandwidthBPS = cfg.BandwidthBPS
	}

	// Node keys and pre-funded genesis.
	keys, err := harness.Keys(cfg.Seed, 0x30000, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	var payouts []types.TxOutput
	if cfg.FundPerNode > 0 {
		for _, k := range keys {
			payouts = append(payouts, types.TxOutput{Value: cfg.FundPerNode, To: k.Public().Addr()})
		}
	}
	var stream *load.Stream
	streamFirst := uint32(len(payouts))
	if cfg.StreamLoad != nil {
		stream, err = load.NewStream(load.StreamConfig{
			Seed:   cfg.Seed,
			TxSize: cfg.StreamLoad.TxSize,
			Lanes:  cfg.StreamLoad.Lanes,
			MaxTxs: cfg.StreamLoad.MaxTxs,
		})
		if err != nil {
			return nil, fmt.Errorf("bitcoinng: %w", err)
		}
		payouts = append(payouts, stream.GenesisPayouts()...)
	}
	genesis := types.GenesisBlock(types.GenesisSpec{
		Target:  crypto.EasiestTarget,
		Payouts: payouts,
	})
	if stream != nil {
		stream.Bind(genesis.Txs[0].ID(), streamFirst)
	}

	fleet, err := harness.New(harness.Spec{
		Protocol: protocol.Protocol(cfg.Protocol),
		Params:   cfg.Params,
		Genesis:  genesis,
		Seed:     cfg.Seed,
		Keys:     keys,
		Net:      netCfg,
		StoreURL: cfg.StoreURL,
		// Each node's files are <root>/node-<i>.*.
		StoreName:           func(i int) string { return fmt.Sprintf("node-%d", i) },
		Resume:              true,
		MinerStream:         0x40000,
		Censors:             cfg.Censors,
		Strategies:          cfg.Strategies,
		DisableConnectCache: cfg.DisableConnectCache,
		Invariants:          cfg.Invariants,
		Wire: func(_ int, base *node.Base) {
			base.RelayTxs = cfg.RelayTxs
			if l := cfg.MempoolLimits; l.MaxTxs > 0 || l.MaxBytes > 0 {
				pool := node.NewPool(base.State)
				pool.SetLimits(l)
				base.Pool = pool
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("bitcoinng: %w", err)
	}
	c := &Cluster{Fleet: fleet, cfg: cfg, stream: stream}
	for _, n := range fleet.Nodes() {
		c.nodes = append(c.nodes, &ClusterNode{n: n, wallet: wallet.New(n.Key)})
	}
	if cfg.AutoMine {
		shares := mining.ExponentialShares(cfg.Nodes, mining.DefaultExponent)
		totalRate := 1.0 / cfg.Params.TargetBlockInterval.Seconds()
		for i, n := range c.nodes {
			n.SetMiningRate(shares[i] * totalRate)
		}
	}
	if cfg.Scenario != nil {
		c.Schedule(cfg.Scenario, nil)
	}
	if len(cfg.Invariants) > 0 {
		interval := c.CheckInterval(cfg.InvariantInterval)
		var tick func()
		tick = func() {
			c.Check(false)
			c.After(interval, tick)
		}
		c.After(interval, tick)
	}
	return c, nil
}

// CheckInvariants runs the configured invariant catalogue once, as a final
// (full-history) check, and returns every violation recorded so far. It
// returns nil when no invariants were configured.
func (c *Cluster) CheckInvariants() []invariant.Violation {
	c.Check(true)
	return c.InvariantViolations()
}

// Play arms the scenario's steps relative to the current virtual time and
// runs through its last step. It returns the first error from this
// scenario's own steps (failures of a concurrently armed build-time
// scenario surface via ScenarioErrors instead); scheduling is complete when
// Play returns, so later Run calls execute nothing further from it.
func (c *Cluster) Play(s *Scenario) error {
	var first error
	c.Schedule(s, func(err error) {
		if first == nil {
			first = err
		}
	})
	c.Run(s.Duration())
	return first
}

// Node returns the i'th node handle.
func (c *Cluster) Node(i int) *ClusterNode { return c.nodes[i] }

// Stream exposes the sustained-load stream (nil unless StreamLoad was
// configured).
func (c *Cluster) Stream() *load.Stream { return c.stream }

// BlastConfig parameterizes one Cluster.Blast run.
type BlastConfig struct {
	// Mode defaults to open loop when Rate > 0, closed loop otherwise.
	Mode load.Mode
	// Rate is the open-loop offered rate, tx/s of virtual time.
	Rate float64
	// Window is the closed-loop outstanding-transaction target.
	Window int64
	// Duration is how long to sustain the load (virtual time).
	Duration time.Duration
	// Grace lets the tail confirm after injection stops; zero takes 30 s.
	Grace time.Duration
	// Targets are the node indices transactions are submitted to; empty
	// submits to node 0 (relay spreads them when RelayTxs is on).
	Targets []int
	// Slice is the injection granularity; zero takes one second of virtual
	// time per tick.
	Slice time.Duration
}

// Blast sustains transaction load against the cluster: each virtual-time
// slice it submits everything the pacing discipline says is due, then lets
// the network and miners run. It returns the offered/confirmed/latency
// report measured on node 0's final main chain. Requires StreamLoad.
//
// Confirmation feedback (closed-loop pacing, release floor) refreshes every
// few slices from a load.Tracker following node 0's chain, so the
// closed-loop window is enforced at that granularity — between refreshes the
// driver errs on the conservative side. The report reads the same tracker,
// advanced once more after the grace period.
func (c *Cluster) Blast(cfg BlastConfig) (*load.Report, error) {
	if c.stream == nil {
		return nil, fmt.Errorf("bitcoinng: Blast needs ClusterConfig.StreamLoad")
	}
	blaster := load.NewBlaster(c.stream, load.BlasterConfig{
		Mode:   cfg.Mode,
		Rate:   cfg.Rate,
		Window: cfg.Window,
	})
	targets := cfg.Targets
	if len(targets) == 0 {
		targets = []int{0}
	}
	for _, t := range targets {
		if t < 0 || t >= len(c.nodes) {
			return nil, fmt.Errorf("bitcoinng: blast target %d out of range (cluster size %d)", t, len(c.nodes))
		}
	}
	slice := cfg.Slice
	if slice <= 0 {
		slice = time.Second
	}
	grace := cfg.Grace
	if grace <= 0 {
		grace = 30 * time.Second
	}
	txSize := load.DefaultTxSize
	if c.cfg.StreamLoad.TxSize > 0 {
		txSize = c.cfg.StreamLoad.TxSize
	}
	// Reorg slack for the release floor, as in the experiment harness: keep
	// a few blockfuls of confirmed history resubmittable.
	slack := int64(4 * (c.cfg.Params.MaxBlockSize/txSize + 1))

	submit := func(tx *types.Transaction) bool {
		admitted := false
		for _, t := range targets {
			if c.nodes[t].SubmitTx(tx) == nil {
				admitted = true
			}
		}
		return admitted
	}
	start := c.Now()
	deadline := start + cfg.Duration
	var tracker load.Tracker
	for tick := 0; c.Now() < deadline; tick++ {
		if tick%16 == 0 {
			tracker.Advance(c.nodes[0].Chain().Tip())
			blaster.ReleaseBehind(tracker.Prefix(), slack)
		}
		blaster.Tick(int64(c.Now()), tracker.Count(), submit)
		c.Run(slice)
	}
	c.Run(grace)
	tracker.Advance(c.nodes[0].Chain().Tip())
	return blaster.Report(c.Now()-start, tracker.Confirmations()), nil
}

// Converged reports whether every node's tip lies on one chain: under
// Bitcoin-NG a leader always has microblocks in flight, so agreement means
// every tip is an ancestor of (or equal to) the farthest tip, not that all
// tips are identical.
func (c *Cluster) Converged() bool {
	// Find the highest tip and verify the others sit on its chain; down
	// nodes' frozen states don't count against agreement.
	var best *chain.State
	for _, n := range c.nodes {
		if !n.n.Down && (best == nil || n.Height() > best.Height()) {
			best = n.Chain()
		}
	}
	for _, n := range c.nodes {
		if n.n.Down {
			continue
		}
		tipNode, ok := best.Store().Get(n.TipID())
		if !ok || !best.MainChainContains(tipNode) {
			return false
		}
	}
	return true // including everything down: vacuously agreed
}

// ID returns the node's index.
func (n *ClusterNode) ID() int { return n.n.ID }

// Client returns the node's protocol client; its NG method reaches the
// Bitcoin-NG node for protocol-specific control.
func (n *ClusterNode) Client() ProtocolClient { return n.n.Client }

// Wallet returns the node's wallet.
func (n *ClusterNode) Wallet() *wallet.Wallet { return n.wallet }

// Address returns the node's reward/wallet address.
func (n *ClusterNode) Address() Address { return n.wallet.Address() }

// Chain returns the node's chain state (read-only use).
func (n *ClusterNode) Chain() *chain.State { return n.n.Base().State }

// Height returns the node's main-chain height (all blocks).
func (n *ClusterNode) Height() uint64 { return n.Chain().Height() }

// KeyHeight returns the node's PoW/key-block height.
func (n *ClusterNode) KeyHeight() uint64 { return n.Chain().KeyHeight() }

// TipID returns the node's main-chain tip hash.
func (n *ClusterNode) TipID() Hash { return n.Chain().Tip().Hash() }

// Balance returns addr's spendable balance in this node's view.
func (n *ClusterNode) Balance(addr Address) Amount {
	return n.Chain().UTXO().BalanceOf(addr)
}

// Pay builds, signs, and submits a payment from this node's wallet to the
// node's local pool (experiment clusters do not relay transactions; every
// node that should serialize it must receive it via SubmitTx).
func (n *ClusterNode) Pay(to Address, amount, fee Amount) (*Transaction, error) {
	tx, err := n.wallet.Pay(n.Chain(), to, amount, fee)
	if err != nil {
		return nil, err
	}
	if err := n.SubmitTx(tx); err != nil {
		return nil, err
	}
	return tx, nil
}

// SubmitTx adds an externally built transaction to this node's pool.
func (n *ClusterNode) SubmitTx(tx *Transaction) error { return n.n.Base().SubmitTx(tx) }

// IsLeader reports whether this node currently leads (protocols without
// leadership always report false).
func (n *ClusterNode) IsLeader() bool { return n.n.IsLeader() }

// MineBlock forces one block find now — a key block under Bitcoin-NG, a
// regular block otherwise — and returns it.
func (n *ClusterNode) MineBlock() types.Block { return n.n.Client.MineBlock() }

// SetMiningRate adjusts the node's simulated mining power (blocks/sec) and
// starts the miner; zero pauses it — the churn experiments use this (§5.2).
func (n *ClusterNode) SetMiningRate(blocksPerSec float64) {
	n.n.Miner.SetRate(blocksPerSec)
	n.n.Miner.Start()
}

// MicroblocksMined returns the node's microblock production count (zero for
// protocols without microblocks).
func (n *ClusterNode) MicroblocksMined() uint64 {
	if ng := n.n.Client.NG(); ng != nil {
		return ng.MicroblocksMined()
	}
	return 0
}

// StrategyName returns the node's active mining strategy name; "honest" for
// protocols without strategic freedom.
func (n *ClusterNode) StrategyName() string { return n.n.StrategyName() }

// FraudsDetected returns how many leader equivocations this node has
// witnessed and holds poison evidence for (§4.5); zero for protocols
// without fraud proofs.
func (n *ClusterNode) FraudsDetected() int {
	if ng := n.n.Client.NG(); ng != nil {
		return len(ng.KnownFrauds())
	}
	return 0
}

// EquivocateLeader is Equivocate returning the two conflicting microblocks'
// hashes.
func (c *Cluster) EquivocateLeader(leaderID int, txA, txB *Transaction) (Hash, Hash, error) {
	mbA, mbB, err := c.PublishEquivocation(leaderID, txA, txB)
	if err != nil {
		return Hash{}, Hash{}, err
	}
	return mbA.Hash(), mbB.Hash(), nil
}
