package node_test

import (
	"math/rand"
	"testing"
	"time"

	"bitcoinng/internal/bitcoin"
	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/types"
)

// tipLog is a Recorder that reads the ids of every tip change during the
// call, as the contract allows, and keeps none of them.
type tipLog struct {
	node.NopRecorder
	calls, connected int
}

func (r *tipLog) TipChanged(_ int, _ int64, _ node.BlockID, connected, _ []node.BlockID) {
	r.calls++
	r.connected += len(connected)
}

// TestTipChangeReportDoesNotAllocate pins the Recorder call of a warm tip
// change at zero allocations: the connected and disconnected ids are filled
// into the node's reused scratch.
func TestTipChangeReportDoesNotAllocate(t *testing.T) {
	h, genesis, key := newHarness(t, 2)
	b := h.bases[0]
	rec := &tipLog{}
	b.Recorder = rec
	res := b.SubmitOwnBlock(mineOn(t, key, genesis.Hash(), 1))
	if !res.TipChanged() {
		t.Fatal("the first block did not move the tip")
	}
	b.RecordTipChange(h.now, res) // warm the scratch
	if a := testing.AllocsPerRun(100, func() { b.RecordTipChange(h.now, res) }); a != 0 {
		t.Errorf("a warm tip change's Recorder call allocates %v times, want 0", a)
	}
	if rec.connected != rec.calls {
		t.Errorf("recorder saw %d connected ids over %d one-block tip changes", rec.connected, rec.calls)
	}
}

// quietEnv is a one-peer node.Env that allocates nothing itself: one reused
// timer, a send log kept across cycles.
type quietEnv struct {
	sent  []node.Message
	timer quietTimer
	rng   *rand.Rand
}

type quietTimer struct{ armed bool }

// onePeer is every quietEnv's peer list, built once.
var onePeer = []int{1}

func (qt *quietTimer) Stop() bool {
	was := qt.armed
	qt.armed = false
	return was
}

func (qt *quietTimer) Reset(time.Duration) { qt.armed = true }

func (e *quietEnv) Now() int64 { return 0 }
func (e *quietEnv) After(time.Duration, func()) node.Timer {
	e.timer.armed = true
	return &e.timer
}
func (e *quietEnv) NodeID() int                { return 0 }
func (e *quietEnv) Peers() []int               { return onePeer }
func (e *quietEnv) Rand() *rand.Rand           { return e.rng }
func (e *quietEnv) Send(_ int, m node.Message) { e.sent = append(e.sent, m) }

// quietNode is a Bitcoin node on genesis over its own quietEnv.
func quietNode(t *testing.T, genesis types.Block, seed int64) (*node.Base, *quietEnv) {
	t.Helper()
	st, err := chain.New(genesis, types.DefaultParams(), bitcoin.Rules{AllowSimulatedPoW: true}, &chain.HeaviestChain{})
	if err != nil {
		t.Fatal(err)
	}
	env := &quietEnv{rng: rand.New(rand.NewSource(seed))}
	return node.NewBase(env, st, nil), env
}

// TestFetchCycleDoesNotAllocate pins a warm inv → getdata → block cycle at
// zero allocations: the one-item inv goes back as its own getdata, and the
// fetch record, its announcer list and its timer callback are recycled.
// Processing is stubbed out, so the same block is fetched again every cycle.
func TestFetchCycleDoesNotAllocate(t *testing.T) {
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	b, env := quietNode(t, genesis, 1)
	processed := 0
	b.ProcessFn = func(types.Block, int) *chain.AddResult { processed++; return nil }
	key, err := crypto.GenerateKey(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	blk := mineOn(t, key, genesis.Hash(), 1)
	inv := &node.InvMsg{Items: []node.Inv{{Type: types.BlockMsgType(blk), Hash: blk.Hash()}}}
	delivery := &node.BlockMsg{Block: blk}
	cycle := func() {
		env.sent = env.sent[:0]
		b.HandleMessage(1, inv)
		b.HandleMessage(1, delivery)
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("a warm fetch cycle allocates %v times, want 0", a)
	}
	if len(env.sent) != 1 || processed != 102 || b.Gossip.PendingFetches() != 0 {
		t.Fatalf("cycle sent %d messages, processed %d blocks, left %d fetches", len(env.sent), processed, b.Gossip.PendingFetches())
	}
	if gd, ok := env.sent[0].(*node.GetDataMsg); !ok || &gd.Items[0] != &inv.Items[0] {
		t.Errorf("cycle sent %T, want the inv back as its getdata", env.sent[0])
	}
}

// TestSimulatedFetchCycleDoesNotAllocate is TestFetchCycleDoesNotAllocate
// on the simulator's own environment: a simnet.NodeEnv over a sim.Loop,
// whose getdata crosses a real link. The fetch record keeps its backoff
// timer, which carries the incarnation guard itself, so a warm cycle re-arms
// it with no closure and no new handle.
func TestSimulatedFetchCycleDoesNotAllocate(t *testing.T) {
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	st, err := chain.New(genesis, types.DefaultParams(), bitcoin.Rules{AllowSimulatedPoW: true}, &chain.HeaviestChain{})
	if err != nil {
		t.Fatal(err)
	}
	loop := sim.NewLoop(0)
	net := simnet.New(loop, simnet.Config{Nodes: 2, MinPeers: 1, Latency: simnet.Fixed(time.Millisecond), BandwidthBPS: 1e9, Seed: 1})
	net.Handle(1, func(int, any, int) {})
	b := node.NewBase(simnet.NewNodeEnv(loop, net, 0, 1), st, nil)
	processed := 0
	b.ProcessFn = func(types.Block, int) *chain.AddResult { processed++; return nil }
	key, err := crypto.GenerateKey(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	blk := mineOn(t, key, genesis.Hash(), 1)
	inv := &node.InvMsg{Items: []node.Inv{{Type: types.BlockMsgType(blk), Hash: blk.Hash()}}}
	delivery := &node.BlockMsg{Block: blk}
	cycle := func() {
		b.HandleMessage(1, inv)
		b.HandleMessage(1, delivery)
		loop.RunFor(time.Second) // the getdata reaches node 1
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("a warm simulated fetch cycle allocates %v times, want 0", a)
	}
	if processed != 102 || b.Gossip.PendingFetches() != 0 || loop.Pending() != 0 {
		t.Fatalf("processed %d blocks, left %d fetches and %d events", processed, b.Gossip.PendingFetches(), loop.Pending())
	}
	if got := net.Stats().MessagesSent; got != 102 {
		t.Errorf("sent %d getdata messages over 102 cycles", got)
	}
}

// TestSharedAnnounceDoesNotAllocate pins a node's Announce of a block another
// node of the fleet already announced at zero allocations: both send the
// block's one inv.
func TestSharedAnnounceDoesNotAllocate(t *testing.T) {
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	key, err := crypto.GenerateKey(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	blk := mineOn(t, key, genesis.Hash(), 1)
	var envs [2]*quietEnv
	var bases [2]*node.Base
	for i := range bases {
		bases[i], envs[i] = quietNode(t, genesis, int64(i))
	}
	bases[0].Gossip.Announce(blk, -1)
	announce := func() {
		envs[1].sent = envs[1].sent[:0]
		bases[1].Gossip.Announce(blk, -1)
	}
	announce()
	if a := testing.AllocsPerRun(100, announce); a != 0 {
		t.Errorf("announcing a block the fleet already announced allocates %v times, want 0", a)
	}
	if len(envs[1].sent) != 1 || envs[0].sent[0] != envs[1].sent[0] {
		t.Errorf("the two nodes sent %v and %v, want the block's one inv", envs[0].sent, envs[1].sent)
	}
}
