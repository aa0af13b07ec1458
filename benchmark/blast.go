package main

import (
	"fmt"
	"strings"
	"time"

	"bitcoinng"
	"bitcoinng/internal/invariant"
	"bitcoinng/internal/load"
	"bitcoinng/internal/mempool"
	"bitcoinng/internal/validate"
)

// blastShape sizes one cluster-harness blast: the blast16 workload and the
// run that builds livesync3's canonical chain.
type blastShape struct {
	nodes           int
	rate            float64 // open loop, tx/s of virtual time
	duration, grace time.Duration
	lanes           int
	// relay turns on loose-transaction gossip with the blast submitting to
	// node 0 alone; without it every node is handed every transaction
	// directly (the paper's §7 methodology).
	relay         bool
	mempoolTxs    int
	batch         time.Duration // TxBatchInterval
	maxBlockSize  int           // 0 keeps the 1 MB default
	microInterval time.Duration // 0 keeps the 10 s default
}

func (sh blastShape) injected() int64 { return int64(sh.rate * sh.duration.Seconds()) }

// targets lists the nodes the blast submits each transaction to.
func (sh blastShape) targets() []int {
	if sh.relay {
		return []int{0}
	}
	all := make([]int, sh.nodes)
	for i := range all {
		all[i] = i
	}
	return all
}

// newBlastCluster builds the cluster and seats node 0 (the largest miner) as
// the first epoch leader at virtual time zero, for the reason
// seatFirstLeader gives.
func newBlastCluster(sh blastShape, spec childSpec) (*bitcoinng.Cluster, error) {
	// Defaults with fixed difficulty, as NewCluster itself would choose.
	params := bitcoinng.DefaultParams()
	params.RetargetWindow = 0
	params.TxBatchInterval = sh.batch
	if sh.maxBlockSize > 0 {
		params.MaxBlockSize = sh.maxBlockSize
	}
	if sh.microInterval > 0 {
		params.MicroblockInterval = sh.microInterval
	}
	cfg := bitcoinng.ClusterConfig{
		Nodes:         sh.nodes,
		Seed:          spec.Seed,
		Params:        params,
		AutoMine:      true,
		RelayTxs:      sh.relay,
		StreamLoad:    &bitcoinng.StreamLoadConfig{TxSize: txSize, Lanes: sh.lanes},
		MempoolLimits: mempool.Limits{MaxTxs: sh.mempoolTxs},
		BandwidthBPS:  1e6,
	}
	if spec.Check {
		cfg.Invariants = invariant.Defaults(invariant.Options{})
	}
	c, err := bitcoinng.NewCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("NewCluster: %w", err)
	}
	c.Node(0).MineBlock()
	return c, nil
}

// presign materializes every transaction the blast will inject, so signing
// is set-up and the timed region is admission, relay and consensus.
func presign(c *bitcoinng.Cluster, n int64) {
	for i := int64(0); i < n; i++ {
		c.Stream().Tx(i)
	}
}

// blast sustains the open-loop load. Untraced it is Cluster.Blast; traced it
// is the same loop rebuilt from public calls with a span around each phase,
// and it also samples mempool depth, which Blast does not expose.
func blast(c *bitcoinng.Cluster, sh blastShape, tr *tracer, layer map[string]float64) (*load.Report, error) {
	if tr == nil {
		return c.Blast(bitcoinng.BlastConfig{Rate: sh.rate, Duration: sh.duration, Grace: sh.grace, Targets: sh.targets()})
	}
	root := tr.begin("cluster.blast", -1)
	blaster := load.NewBlaster(c.Stream(), load.BlasterConfig{Rate: sh.rate})
	slack := int64(4 * (c.Node(0).Chain().Params().MaxBlockSize/txSize + 1))
	targets := sh.targets()
	submit := func(tx *bitcoinng.Transaction) bool {
		admitted := false
		for _, t := range targets {
			if c.Node(t).SubmitTx(tx) == nil {
				admitted = true
			}
		}
		return admitted
	}
	walk := func() []load.Confirmation {
		id := tr.begin("cluster.confirm_walk", root)
		confs := load.Confirmations(c.Node(0).Chain().Tip())
		tr.end(id, 1)
		return confs
	}
	start := c.Now()
	deadline := start + sh.duration
	var confirmed int64
	depthMax := 0
	for tick := 0; c.Now() < deadline; tick++ {
		if tick%16 == 0 {
			confs := walk()
			confirmed = int64(len(confs))
			blaster.ReleaseBehind(confirmedPrefix(confs), slack)
		}
		before := blaster.Injected()
		id := tr.begin("cluster.submit", root)
		blaster.Tick(int64(c.Now()), confirmed, submit)
		tr.end(id, blaster.Injected()-before)
		id = tr.begin("cluster.run", root)
		c.Run(time.Second)
		tr.end(id, 1)
		for i := 0; i < c.Size(); i++ {
			if d := c.Node(i).Client().Base().Pool.Len(); d > depthMax {
				depthMax = d
			}
		}
	}
	id := tr.begin("cluster.run", root)
	c.Run(sh.grace)
	tr.end(id, 1)
	report := blaster.Report(c.Now()-start, walk())
	tr.end(root, 1)
	layer["mempool.depth_max"] = float64(depthMax)
	layer["cluster.submit_s"] = tr.seconds("cluster.submit")
	layer["cluster.run_s"] = tr.seconds("cluster.run")
	layer["cluster.confirm_walk_s"] = tr.seconds("cluster.confirm_walk")
	return report, nil
}

// confirmedPrefix is the first stream index not yet confirmed, given the
// sorted confirmation list (Cluster.Blast's release-floor rule).
func confirmedPrefix(confs []load.Confirmation) int64 {
	var p int64
	for _, cf := range confs {
		if cf.Index != p {
			break
		}
		p++
	}
	return p
}

// blastOutcome reads a finished blast through the cluster's public surface.
// Attempted is what was injected: Report.Offered keeps counting the analytic
// schedule through the grace period, when nothing is injected any more.
func blastOutcome(c *bitcoinng.Cluster, report *load.Report, layer map[string]float64) *outcome {
	o := &outcome{layer: layer}
	o.attempted = report.Admitted
	o.failed = report.Admitted - report.Confirmed
	o.txs = report.Confirmed
	checkLoad(o, report.Offered, report.Admitted, report.Confirmed)
	for _, e := range c.ScenarioErrors() {
		o.problemf("scenario error: %v", e)
	}
	violations := c.CheckInvariants()
	for _, v := range violations {
		o.problemf("invariant violation: %s", v)
	}
	converged := c.Converged()
	if !converged {
		o.problemf("cluster did not converge")
	}
	rep := c.Report()
	net := c.NetStats()
	o.virtual = virtualMetrics{
		confirmedTPS:   report.ConfirmedPerSec(),
		confP50:        report.P50,
		confP90:        report.P90,
		confP99:        report.P99,
		consensusDelay: rep.ConsensusDelay,
		propagationP50: rep.PropagationP50,
	}
	netLayer(layer, net, report.Confirmed)
	chainLayer(layer, rep)
	cacheLayer(layer, validate.Shared().Stats())

	var b strings.Builder
	fmt.Fprintf(&b, "load mode=%s offered=%d admitted=%d confirmed=%d p50=%v p90=%v p99=%v dur=%v\n",
		report.Mode, report.Offered, report.Admitted, report.Confirmed, report.P50, report.P90, report.P99, report.Duration)
	fmt.Fprintf(&b, "report=%+v\n", *rep)
	fmt.Fprintf(&b, "net=%+v\n", net)
	for i := 0; i < c.Size(); i++ {
		fmt.Fprintf(&b, "tip %d=%s height=%d\n", i, c.Node(i).TipID(), c.Node(i).Height())
	}
	fmt.Fprintf(&b, "converged=%v\n", converged)
	for _, v := range violations {
		fmt.Fprintf(&b, "violation: %s\n", v)
	}
	o.digest = b.String()
	return o
}

func runBlast16(spec childSpec, m *meter, tr *tracer) (*outcome, error) {
	sh := blastShape{nodes: 16, rate: 40, duration: 20 * time.Minute, grace: 30 * time.Second,
		lanes: 64, relay: true, mempoolTxs: 20000, batch: 500 * time.Millisecond}
	if spec.Short {
		sh.duration = 90 * time.Second
	}
	if spec.MempoolTxs > 0 {
		sh.mempoolTxs = spec.MempoolTxs
	}
	c, err := newBlastCluster(sh, spec)
	if err != nil {
		return nil, err
	}
	presign(c, sh.injected())
	layer := map[string]float64{}
	m.beginTimed()
	report, err := blast(c, sh, tr, layer)
	m.endTimed()
	if err != nil {
		return nil, fmt.Errorf("Blast: %w", err)
	}
	o := blastOutcome(c, report, layer)
	o.facts = facts{harness: "cluster", nodes: sh.nodes, injected: report.Admitted,
		walks: int64(sh.duration/(16*time.Second)) + 1}
	// Relay copies of one transaction: every node forwards it on each of its
	// links except the one it first arrived on (the origin forwards on all).
	for i := 0; i < c.Size(); i++ {
		o.facts.relayDeliveries += int64(len(c.Node(i).Client().Base().Env.Peers()))
	}
	o.facts.relayDeliveries -= int64(sh.nodes - 1)
	return o, nil
}
