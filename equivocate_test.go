package bitcoinng

import (
	"testing"
	"time"

	"bitcoinng/internal/types"
)

// equivocationRun is the §4.5 attack of the examples/doublespend scenario on
// 8 nodes: node 0 leads and forks its microblock chain with two payments of
// the same coins, then the cluster runs 10 s so honest nodes gather the
// evidence. It returns the cluster, the attacker and an honest node.
func equivocationRun(t *testing.T) (*Cluster, *ClusterNode, *ClusterNode, Params) {
	t.Helper()
	params := DefaultParams()
	params.RetargetWindow = 0
	params.TargetBlockInterval = 30 * time.Second
	params.MicroblockInterval = 3 * time.Second

	c, err := New(8,
		WithSeed(7),
		WithParams(params),
		WithFunding(100_000),
		WithAutoMine(false),
	)
	if err != nil {
		t.Fatal(err)
	}
	attacker, honest := c.Node(0), c.Node(1)

	// Equivocating without leading is rejected.
	if _, _, err := c.EquivocateLeader(0, nil, nil); err == nil {
		t.Fatal("equivocation accepted from a non-leader")
	}

	attacker.MineBlock()
	c.Run(5 * time.Second)
	if !attacker.IsLeader() {
		t.Fatal("attacker does not lead")
	}
	w := attacker.Wallet()
	txA, err := w.Pay(attacker.Chain(), Address{0xaa}, 90_000, 100)
	if err != nil {
		t.Fatal(err)
	}
	txB, err := w.Pay(attacker.Chain(), Address{0xbb}, 90_000, 100)
	if err != nil {
		t.Fatal(err)
	}
	hashA, hashB, err := c.EquivocateLeader(0, txA, txB)
	if err != nil {
		t.Fatal(err)
	}
	if hashA == hashB {
		t.Fatal("equivocation produced identical microblocks")
	}
	c.Run(10 * time.Second)
	return c, attacker, honest, params
}

// TestEquivocateLeaderLifecycle drives the §4.5 attack through the public
// API (the examples/doublespend scenario as a regression test): a leader
// forks its microblock chain, honest nodes gather evidence, the next leader
// places the poison, and the cheater's revenue is revoked network-wide.
func TestEquivocateLeaderLifecycle(t *testing.T) {
	c, attacker, honest, params := equivocationRun(t)

	detected := 0
	for i := 1; i < c.Size(); i++ {
		if c.Node(i).FraudsDetected() > 0 {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no honest node detected the fork")
	}

	before := honest.Balance(attacker.Address())
	honest.MineBlock()
	c.Run(30 * time.Second)
	after := honest.Balance(attacker.Address())
	if after >= before {
		t.Errorf("attacker balance %d -> %d; poison did not revoke revenue", before, after)
	}
	// Exactly one merchant got paid.
	a, b := honest.Balance(Address{0xaa}), honest.Balance(Address{0xbb})
	if (a == 0) == (b == 0) {
		t.Errorf("double spend outcome wrong: merchantA=%d merchantB=%d", a, b)
	}
	// The poisoner collected a reward above its key block subsidy.
	if got := honest.Balance(honest.Address()); got <= Amount(params.Subsidy) {
		t.Errorf("poisoner balance %d, want above subsidy %d", got, params.Subsidy)
	}
}

// TestEquivocatedBlocksReachTheReport runs the same attack on to the
// poisoning key block and requires the §6 report's main chain to be the
// honest node's, block for block: both equivocated microblocks are reported
// at generation, so every block later built on one of them registers at its
// height and not detached at height 0.
func TestEquivocatedBlocksReachTheReport(t *testing.T) {
	c, _, honest, _ := equivocationRun(t)
	honest.MineBlock()
	c.Run(30 * time.Second)

	blocks, pow := 0, 0
	for _, n := range honest.Chain().MainChain()[1:] { // genesis is not counted
		blocks++
		if n.Kind() != types.KindMicro {
			pow++
		}
	}
	r := c.Report()
	if r.MainChainBlocks != blocks || r.MainPowBlocks != pow {
		t.Errorf("report's main chain has %d blocks, %d with proof of work; the honest node's has %d and %d",
			r.MainChainBlocks, r.MainPowBlocks, blocks, pow)
	}
	if r.Fairness != 1 || r.MiningPowerUtilization != 1 {
		t.Errorf("fairness %v and mining power utilization %v, want 1 and 1 (no key block was pruned)",
			r.Fairness, r.MiningPowerUtilization)
	}
}
