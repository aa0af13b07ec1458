package bitcoinng

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestBitcoinClusterHasNoNGSurface runs the built-in Bitcoin client under a
// cluster: blocks are mined through Client.MineBlock, and the Bitcoin-NG
// surface (leadership, microblocks, fraud proofs, strategies) reads empty.
func TestBitcoinClusterHasNoNGSurface(t *testing.T) {
	params := DefaultParams()
	params.RetargetWindow = 0
	params.TargetBlockInterval = 20 * time.Second
	c, err := New(4, WithProtocol(Bitcoin), WithSeed(3), WithParams(params))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Minute)
	if c.Node(0).Height() == 0 {
		t.Error("cluster: bitcoin produced no blocks")
	}
	before := c.Node(0).Height()
	b := c.Node(0).Client().MineBlock()
	if got := c.Node(0).TipID(); got != b.Hash() || c.Node(0).Height() != before+1 {
		t.Errorf("Client.MineBlock: tip %s at height %d, want the mined %s at %d",
			got.Short(), c.Node(0).Height(), b.Hash().Short(), before+1)
	}
	for i := 0; i < c.Size(); i++ {
		n := c.Node(i)
		if n.Client().NG() != nil {
			t.Errorf("node %d: a bitcoin client has a Bitcoin-NG node", i)
		}
		if n.IsLeader() || n.MicroblocksMined() != 0 || n.FraudsDetected() != 0 || n.StrategyName() != "honest" {
			t.Errorf("node %d: leader=%v micro=%d frauds=%d strategy=%q, want a leaderless honest node",
				i, n.IsLeader(), n.MicroblocksMined(), n.FraudsDetected(), n.StrategyName())
		}
	}
}

// TestNGOnlyInputsRefusedUnderBitcoinAndGHOST: censorship and mining
// strategies are Bitcoin-NG behaviours, so Bitcoin and GHOST refuse them at
// build time under both harnesses, as a Bitcoin cluster refuses a mid-run
// strategy switch or equivocation.
func TestNGOnlyInputsRefusedUnderBitcoinAndGHOST(t *testing.T) {
	inputs := []struct {
		name string
		opt  Option
		want string
	}{
		{"strategy", WithStrategy(0, "selfish"), "client cannot run mining strategy"},
		{"censor", WithCensors(1), "client cannot censor transactions"},
	}
	for _, p := range []Protocol{Bitcoin, GHOST} {
		for _, in := range inputs {
			if _, err := New(4, WithProtocol(p), in.opt); err == nil || !strings.Contains(err.Error(), in.want) {
				t.Errorf("%s New with a %s: error = %v, want %q", p, in.name, err, in.want)
			}
			cfg := NewExperiment(4, WithProtocol(p), WithTargetBlocks(2), in.opt)
			if _, err := RunExperiment(cfg); err == nil || !strings.Contains(err.Error(), in.want) {
				t.Errorf("%s RunExperiment with a %s: error = %v, want %q", p, in.name, err, in.want)
			}
		}
		// An explicit honest assignment asks for nothing NG-only.
		if _, err := New(4, WithProtocol(p), WithStrategy(0, "honest")); err != nil {
			t.Errorf("%s New with an honest strategy: %v", p, err)
		}
	}

	c, err := New(4, WithProtocol(Bitcoin), WithAutoMine(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AdoptStrategy(0, "selfish"); err == nil || !strings.Contains(err.Error(), "client cannot switch mining strategy") {
		t.Errorf("bitcoin AdoptStrategy error = %v, want a refusal", err)
	}
	if err := c.Equivocate(0, nil, nil); err == nil || !strings.Contains(err.Error(), "client cannot equivocate") {
		t.Errorf("bitcoin Equivocate error = %v, want a refusal", err)
	}
}

// TestUnknownProtocolSharedError asserts both harnesses reject an unknown
// protocol with the one shared error.
func TestUnknownProtocolSharedError(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Protocol: "no-such-protocol", Nodes: 2}); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("NewCluster error = %v, want ErrUnknownProtocol", err)
	}
	if _, err := New(2, WithProtocol("no-such-protocol")); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("New error = %v, want ErrUnknownProtocol", err)
	}
	if _, err := RunExperiment(DefaultExperiment("no-such-protocol", 2, 1)); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("RunExperiment error = %v, want ErrUnknownProtocol", err)
	}
	// The message names what is available.
	_, err := New(2, WithProtocol("no-such-protocol"))
	for _, want := range []string{`"no-such-protocol"`, string(Bitcoin), string(BitcoinNG), string(GHOST)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// TestWithCensors drives the §5.2 censorship behaviour through the public
// API: a censoring leader serializes no transactions, and the payment only
// confirms once an honest node takes over leadership.
func TestWithCensors(t *testing.T) {
	params := DefaultParams()
	params.RetargetWindow = 0
	params.TargetBlockInterval = 20 * time.Second
	params.MicroblockInterval = 2 * time.Second
	c, err := New(4,
		WithSeed(11),
		WithParams(params),
		WithFunding(10_000),
		WithAutoMine(false),
		WithCensors(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	dest := Address{0xce}
	tx, err := c.Node(1).Pay(dest, 2_500, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		if i != 1 {
			if err := c.Node(i).SubmitTx(tx); err != nil {
				t.Fatalf("node %d rejected tx: %v", i, err)
			}
		}
	}
	c.Node(0).MineBlock() // the censor leads
	c.Run(30 * time.Second)
	if got := c.Node(1).Balance(dest); got != 0 {
		t.Fatalf("censoring leader confirmed the payment: dest balance %d", got)
	}
	c.Node(1).MineBlock() // an honest leader takes over
	c.Run(30 * time.Second)
	if got := c.Node(1).Balance(dest); got != 2_500 {
		t.Fatalf("honest leader did not confirm the payment: dest balance %d", got)
	}

	// An out-of-range censor index is rejected at build time, not silently
	// ignored — under both harnesses.
	if _, err := New(4, WithCensors(4)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("New(4, WithCensors(4)) error = %v, want out-of-range rejection", err)
	}
	if _, err := RunExperiment(NewExperiment(4, WithCensors(9))); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("NewExperiment censor error = %v, want out-of-range rejection", err)
	}
}

// TestExperimentWithCensors measures §5.2 censorship in a run: with every
// node censoring, microblocks are produced but serialize no transactions.
func TestExperimentWithCensors(t *testing.T) {
	cfg := NewExperiment(4, WithSeed(5), WithTargetBlocks(8), WithCensors(0, 1, 2, 3))
	cfg.Params.MaxBlockSize = 20_000
	res, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Blocks == 0 {
		t.Fatal("censoring network produced no blocks")
	}
	if res.Report.TxFrequency != 0 {
		t.Errorf("censoring leaders serialized transactions: tx/s = %v", res.Report.TxFrequency)
	}
}

// TestExperimentScenarioBeyondMaxSimTime asserts a scenario that outlives
// the run is rejected up front instead of silently truncated.
func TestExperimentScenarioBeyondMaxSimTime(t *testing.T) {
	cfg := NewExperiment(2, WithScenario(NewScenario(At(7*time.Hour, Heal()))))
	if _, err := RunExperiment(cfg); err == nil || !strings.Contains(err.Error(), "MaxSimTime") {
		t.Fatalf("err = %v, want MaxSimTime validation error", err)
	}
}

// TestExperimentScenario runs a partition/heal script inside a measured
// experiment: the third harness-independent scenario consumer.
func TestExperimentScenario(t *testing.T) {
	params := DefaultParams()
	params.RetargetWindow = 0
	params.TargetBlockInterval = 20 * time.Second
	params.MicroblockInterval = 2 * time.Second
	params.MaxBlockSize = 20_000
	cfg := NewExperiment(6,
		WithSeed(2),
		WithParams(params),
		WithTargetBlocks(10),
		WithScenario(NewScenario(
			At(30*time.Second, Partition([]int{0, 1, 2}, []int{3, 4, 5})),
			At(90*time.Second, Heal()),
			At(100*time.Second, LatencySpike(3)),
			At(110*time.Second, LatencySpike(1)),
		)),
	)
	res, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, serr := range res.ScenarioErrors {
		t.Errorf("scenario step failed: %v", serr)
	}
	if res.NetStats.MessagesLost == 0 {
		t.Error("partition dropped no messages — the scenario did not execute")
	}
	if res.SimTime < 110*time.Second {
		t.Errorf("run stopped at %v, before the scenario's last step", res.SimTime)
	}
}
