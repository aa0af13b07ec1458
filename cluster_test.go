package bitcoinng

import (
	"testing"
	"time"
)

func TestClusterNGLifecycle(t *testing.T) {
	params := DefaultParams()
	params.RetargetWindow = 0
	params.TargetBlockInterval = 30 * time.Second
	params.MicroblockInterval = 5 * time.Second
	c, err := New(10, WithParams(params), WithFunding(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Minute)

	if c.Node(0).KeyHeight() == 0 {
		t.Fatal("no key blocks mined")
	}
	if c.Node(0).Height() <= c.Node(0).KeyHeight() {
		t.Error("no microblocks on chain")
	}
	// Exactly one leader at a time (on a converged cluster).
	leaders := 0
	for i := 0; i < c.Size(); i++ {
		if c.Node(i).IsLeader() {
			leaders++
		}
	}
	if leaders > 1 {
		t.Errorf("%d simultaneous leaders", leaders)
	}
	r := c.Report()
	if r.MiningPowerUtilization < 0.8 {
		t.Errorf("MPU = %.3f", r.MiningPowerUtilization)
	}
}

func TestClusterPaymentConfirms(t *testing.T) {
	params := DefaultParams()
	params.RetargetWindow = 0
	params.TargetBlockInterval = 20 * time.Second
	params.MicroblockInterval = 2 * time.Second
	c, err := New(6, WithSeed(2), WithParams(params), WithFunding(10_000))
	if err != nil {
		t.Fatal(err)
	}
	payer := c.Node(0)
	// Pay a fresh address that earns no mining rewards, so the balance
	// delta is exactly the payment.
	dest := Address{0xde, 0xad}

	// Clusters don't relay transactions (paper methodology), so hand the
	// payment to every node's pool like the pre-loaded workload would be.
	tx, err := payer.Pay(dest, 2_500, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < c.Size(); i++ {
		if err := c.Node(i).SubmitTx(tx); err != nil {
			t.Fatalf("node %d rejected tx: %v", i, err)
		}
	}
	c.Run(3 * time.Minute)

	for i := 0; i < c.Size(); i++ {
		if got := c.Node(i).Balance(dest); got != 2_500 {
			t.Errorf("node %d sees dest balance %d, want 2500", i, got)
		}
	}
	// The payer paid amount + fee; mining rewards are still immature, and
	// the wallet's maturity-aware balance excludes them.
	if got := payer.Wallet().Balance(payer.Chain()); got != 10_000-2_600 {
		t.Errorf("payer balance = %d", got)
	}
}

func TestClusterBitcoinAndGhost(t *testing.T) {
	for _, p := range []Protocol{Bitcoin, GHOST} {
		params := DefaultParams()
		params.RetargetWindow = 0
		params.TargetBlockInterval = 20 * time.Second
		c, err := New(8, WithProtocol(p), WithSeed(3), WithParams(params), WithFunding(1000))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		c.Run(4 * time.Minute)
		if c.Node(0).Height() == 0 {
			t.Errorf("%s: no blocks", p)
		}
		if c.Node(0).IsLeader() {
			t.Errorf("%s: leadership outside bitcoin-ng", p)
		}
	}
}

func TestClusterChurn(t *testing.T) {
	// §5.2: a sudden mining power drop stalls key blocks but microblocks
	// keep serializing under the incumbent leader.
	params := DefaultParams()
	params.RetargetWindow = 0
	params.TargetBlockInterval = 20 * time.Second
	params.MicroblockInterval = 2 * time.Second
	c, err := New(6, WithSeed(4), WithParams(params), WithFunding(1000))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Minute)
	heightBefore := c.Node(0).Height()
	keysBefore := c.Node(0).KeyHeight()
	if keysBefore == 0 {
		t.Fatal("no key blocks before churn")
	}
	// 95% of mining power vanishes.
	for i := 0; i < c.Size(); i++ {
		c.Node(i).SetMiningRate(0.0001)
	}
	c.Run(2 * time.Minute)
	if c.Node(0).Height() <= heightBefore {
		t.Error("transaction serialization stopped during mining power drop")
	}
}

func TestClusterDeterminism(t *testing.T) {
	mk := func() Hash {
		c, err := New(5, WithSeed(9), WithFunding(1000))
		if err != nil {
			t.Fatal(err)
		}
		c.Run(5 * time.Minute)
		return c.Node(0).TipID()
	}
	if mk() != mk() {
		t.Error("same seed produced different cluster histories")
	}
}

// TestGossipRefetchUnderChurnAndLoss drives the block-fetch re-request path
// through churn: blocks flow while part of the network is partitioned off
// (getdata round trips are lost), the partition heals, and all mining then
// churns to zero. Every fetch must eventually resolve or give up — no
// pending entry may outlive the run and no stale timer may keep
// re-requesting — and the network must converge on one chain.
func TestGossipRefetchUnderChurnAndLoss(t *testing.T) {
	params := DefaultParams()
	params.RetargetWindow = 0
	params.TargetBlockInterval = 2 * time.Second
	params.FetchTimeout = 3 * time.Second

	// The Bitcoin client shares the node.Base gossip layer and, unlike
	// Bitcoin-NG, goes fully quiescent when mining churns to zero (an NG
	// leader keeps issuing microblocks forever), so "every fetch drains"
	// is a meaningful end-state invariant here.
	c, err := New(8,
		WithSeed(11),
		WithProtocol(Bitcoin),
		WithParams(params),
		WithScenario(NewScenario(
			At(2*time.Second, Partition([]int{0, 1})),
			At(14*time.Second, Heal()),
			At(18*time.Second, ChurnAll(0)), // churn: all mining power leaves
		)),
	)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(45 * time.Second) // past the last step plus several retry rounds
	if errs := c.ScenarioErrors(); len(errs) > 0 {
		t.Fatalf("scenario errors: %v", errs)
	}
	if got := c.NetStats().MessagesLost; got == 0 {
		t.Fatal("partition lost no messages; the loss path was not exercised")
	}
	for i := 0; i < c.Size(); i++ {
		if got := c.Node(i).Client().Base().Gossip.PendingFetches(); got != 0 {
			t.Errorf("node %d still has %d pending fetches after quiescence", i, got)
		}
	}
	if !c.Converged() {
		t.Error("network did not converge after churn and loss")
	}
}

// TestClusterEventsCounted: Events surfaces the kernel engine's executed-event
// counter, so a cluster run reports its simulation cost like an experiment's
// Result.Events does (the benchmark's sim.events read 0 on cluster workloads
// while there was nothing to read).
func TestClusterEventsCounted(t *testing.T) {
	c, err := New(4, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Minute)
	if c.Events() == 0 {
		t.Error("ten minutes of mining and gossip executed no simulation events")
	}
}
