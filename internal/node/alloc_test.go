package node_test

import (
	"math/rand"
	"testing"
	"time"

	"bitcoinng/internal/bitcoin"
	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
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

func (qt *quietTimer) Stop() bool {
	was := qt.armed
	qt.armed = false
	return was
}

func (e *quietEnv) Now() int64 { return 0 }
func (e *quietEnv) After(time.Duration, func()) node.Timer {
	e.timer.armed = true
	return &e.timer
}
func (e *quietEnv) NodeID() int                { return 0 }
func (e *quietEnv) Peers() []int               { return []int{1} }
func (e *quietEnv) Rand() *rand.Rand           { return e.rng }
func (e *quietEnv) Send(_ int, m node.Message) { e.sent = append(e.sent, m) }

// TestFetchCycleAllocatesOnlyItsRequest pins a warm inv → getdata → block
// cycle at one allocation, the getdata it sends: the fetch record, its
// announcer list and its timer callback are recycled. Processing is stubbed
// out, so the same block is fetched again every cycle.
func TestFetchCycleAllocatesOnlyItsRequest(t *testing.T) {
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	st, err := chain.New(genesis, types.DefaultParams(), bitcoin.Rules{AllowSimulatedPoW: true}, &chain.HeaviestChain{})
	if err != nil {
		t.Fatal(err)
	}
	env := &quietEnv{rng: rand.New(rand.NewSource(1))}
	b := node.NewBase(env, st, nil)
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
	if a := testing.AllocsPerRun(100, cycle); a != 1 {
		t.Errorf("a warm fetch cycle allocates %v times, want 1 (its getdata)", a)
	}
	if len(env.sent) != 1 || processed != 102 || b.Gossip.PendingFetches() != 0 {
		t.Fatalf("cycle sent %d messages, processed %d blocks, left %d fetches", len(env.sent), processed, b.Gossip.PendingFetches())
	}
	if gd, ok := env.sent[0].(*node.GetDataMsg); !ok || gd.Items[0].Hash != blk.Hash() {
		t.Errorf("cycle sent %T, want a getdata for the block", env.sent[0])
	}
}
