package node_test

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"bitcoinng/internal/bitcoin"
	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

// harness is a hand-pumped message fabric: Sends are queued and delivered
// only when the test calls pump, and timers fire only when the test advances
// the clock. It gives the gossip tests full control over ordering and loss.
type harness struct {
	t     testing.TB
	now   int64
	envs  map[int]*fakeEnv
	bases map[int]*node.Base
	mute  map[int]bool // nodes that drop all incoming messages

	// wire, when set, delivers each message as the live path does: encoded
	// and decoded through node.NewMessage's table.
	wire bool
	// tamper, when set, sees each message before delivery and may rewrite
	// it; returning false drops it.
	tamper func(qm *queuedMsg) bool
	// delivered logs every message pump handed to a node.
	delivered []queuedMsg
}

type queuedMsg struct {
	from, to int
	msg      node.Message
}

type fakeTimer struct {
	env     *fakeEnv
	at      int64
	fn      func()
	stopped bool
	fired   bool
}

func (ft *fakeTimer) Stop() bool {
	was := !ft.stopped && !ft.fired
	ft.stopped = true
	return was
}

// Reset re-queues the timer on its env, under the recycling rule.
func (ft *fakeTimer) Reset(d time.Duration) {
	if !ft.stopped && !ft.fired {
		panic("fakeTimer: Reset of a pending timer")
	}
	ft.at, ft.stopped, ft.fired = ft.env.h.now+int64(d), false, false
	ft.env.timers = append(ft.env.timers, ft)
}

type fakeEnv struct {
	h      *harness
	id     int
	peers  []int
	queue  []queuedMsg
	timers []*fakeTimer
	rng    *rand.Rand
}

func (e *fakeEnv) Now() int64 { return e.h.now }
func (e *fakeEnv) After(d time.Duration, fn func()) node.Timer {
	ft := &fakeTimer{env: e, at: e.h.now + int64(d), fn: fn}
	e.timers = append(e.timers, ft)
	return ft
}
func (e *fakeEnv) NodeID() int      { return e.id }
func (e *fakeEnv) Peers() []int     { return e.peers }
func (e *fakeEnv) Rand() *rand.Rand { return e.rng }
func (e *fakeEnv) Send(p int, m node.Message) {
	e.queue = append(e.queue, queuedMsg{from: e.id, to: p, msg: m})
}

func newHarness(t *testing.T, n int) (*harness, *types.PowBlock, *crypto.PrivateKey) {
	t.Helper()
	params := types.DefaultParams()
	params.RandomTieBreak = false
	return newHarnessParams(t, n, params)
}

func newHarnessParams(t testing.TB, n int, params types.Params) (*harness, *types.PowBlock, *crypto.PrivateKey) {
	t.Helper()
	key, err := crypto.GenerateKey(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	h := &harness{
		t:     t,
		envs:  make(map[int]*fakeEnv),
		bases: make(map[int]*node.Base),
		mute:  make(map[int]bool),
	}
	for i := 0; i < n; i++ {
		peers := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, j)
			}
		}
		env := &fakeEnv{h: h, id: i, peers: peers, rng: rand.New(rand.NewSource(int64(i)))}
		st, err := chain.New(genesis, params, bitcoin.Rules{AllowSimulatedPoW: true},
			&chain.HeaviestChain{})
		if err != nil {
			t.Fatal(err)
		}
		h.envs[i] = env
		h.bases[i] = node.NewBase(env, st, nil)
	}
	return h, genesis, key
}

// pump delivers every queued message once (messages generated during
// delivery wait for the next round). It returns how many were delivered.
func (h *harness) pump() int {
	var all []queuedMsg
	ids := make([]int, 0, len(h.envs))
	for id := range h.envs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e := h.envs[id]
		all = append(all, e.queue...)
		e.queue = nil
	}
	for _, qm := range all {
		if h.mute[qm.to] || (h.tamper != nil && !h.tamper(&qm)) {
			continue
		}
		if h.wire {
			qm.msg = reframe(h.t, qm.msg)
		}
		h.delivered = append(h.delivered, qm)
		h.bases[qm.to].HandleMessage(qm.from, qm.msg)
	}
	return len(all)
}

// reframe returns m as a live peer receives it: encoded, then decoded into a
// fresh message of its type.
func reframe(t testing.TB, m node.Message) node.Message {
	t.Helper()
	out, err := node.NewMessage(m.Type())
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Decode(wire.Encode(m), out); err != nil {
		t.Fatalf("%v: %v", m.Type(), err)
	}
	return out
}

// drain pumps until quiescent.
func (h *harness) drain() {
	for h.pump() > 0 {
	}
}

// advance moves the clock and fires due timers.
func (h *harness) advance(d time.Duration) {
	h.now += int64(d)
	for _, e := range h.envs {
		timers := e.timers
		e.timers = nil
		for _, ft := range timers {
			if ft.stopped {
				continue
			}
			if ft.at <= h.now {
				ft.fired = true
				ft.fn()
			} else {
				e.timers = append(e.timers, ft)
			}
		}
	}
}

func mineOn(t *testing.T, key *crypto.PrivateKey, prev crypto.Hash, height uint64) *types.PowBlock {
	t.Helper()
	txs := []*types.Transaction{{
		Kind:    types.TxCoinbase,
		Outputs: []types.TxOutput{{Value: 50, To: key.Public().Addr()}},
		Height:  height,
	}}
	return &types.PowBlock{
		Header: types.PowHeader{
			Prev:       prev,
			MerkleRoot: crypto.MerkleRoot(types.TxIDs(txs)),
			TimeNanos:  int64(height),
			Target:     crypto.EasiestTarget,
		},
		Txs:          txs,
		SimulatedPoW: true,
	}
}

func TestInvGetDataBlockFlow(t *testing.T) {
	h, genesis, key := newHarness(t, 3)
	b1 := mineOn(t, key, genesis.Hash(), 1)

	h.bases[0].SubmitOwnBlock(b1)

	// Round 1: invs to peers 1 and 2.
	if n := h.pump(); n != 2 {
		t.Fatalf("round 1 delivered %d messages, want 2 invs", n)
	}
	// Round 2: getdata back to 0 (from both).
	if n := h.pump(); n != 2 {
		t.Fatalf("round 2 delivered %d, want 2 getdata", n)
	}
	// Round 3: block to 1 and 2.
	h.drain()
	for i := 1; i <= 2; i++ {
		if !h.bases[i].State.HasBlock(b1.Hash()) {
			t.Errorf("node %d did not receive the block", i)
		}
		if h.bases[i].State.Tip().Hash() != b1.Hash() {
			t.Errorf("node %d tip not at b1", i)
		}
	}
}

func TestDuplicateInvFetchedOnce(t *testing.T) {
	h, genesis, key := newHarness(t, 3)
	b1 := mineOn(t, key, genesis.Hash(), 1)
	inv := node.Inv{Type: types.BlockMsgType(b1), Hash: b1.Hash()}

	// Node 2 hears the same inv from 0 and 1.
	h.bases[2].HandleMessage(0, &node.InvMsg{Items: []node.Inv{inv}})
	h.bases[2].HandleMessage(1, &node.InvMsg{Items: []node.Inv{inv}})

	// Only one getdata goes out.
	var getdatas int
	for _, qm := range h.envs[2].queue {
		if _, ok := qm.msg.(*node.GetDataMsg); ok {
			getdatas++
		}
	}
	if getdatas != 1 {
		t.Errorf("sent %d getdata, want 1", getdatas)
	}
}

func TestFetchRetryAfterTimeout(t *testing.T) {
	h, genesis, key := newHarness(t, 3)
	b1 := mineOn(t, key, genesis.Hash(), 1)
	// Node 1 also has the block so it can serve it later.
	h.bases[1].State.AddBlock(b1, 0)

	h.mute[0] = true // node 0 will swallow the first getdata
	inv := node.Inv{Type: types.BlockMsgType(b1), Hash: b1.Hash()}
	h.bases[2].HandleMessage(0, &node.InvMsg{Items: []node.Inv{inv}})
	h.bases[2].HandleMessage(1, &node.InvMsg{Items: []node.Inv{inv}})
	h.drain() // getdata to 0 is dropped

	if h.bases[2].State.HasBlock(b1.Hash()) {
		t.Fatal("block arrived despite muted peer")
	}
	// After the fetch timeout the node retries with announcer 1.
	h.advance(25 * time.Second)
	h.drain()
	if !h.bases[2].State.HasBlock(b1.Hash()) {
		t.Error("fetch was not retried from the second announcer")
	}
}

// TestSentGetDataIsNeverRewritten holds a fetch's first getdata in flight
// while the retry to the second announcer delivers the block, and a fetch of
// a second block then reuses the ended fetch's record. Every message on the
// way is shared: the block's one inv, which both holders announce and the
// requester sends back as its getdata, and the block's one reply, which both
// holders send. Each must still name the first block when the held request
// finally arrives: a request aliasing its recycled record, or a shared
// message rewritten for the second block, would ask for or deliver the
// second one.
func TestSentGetDataIsNeverRewritten(t *testing.T) {
	h, genesis, key := newHarness(t, 3)
	first := mineOn(t, key, genesis.Hash(), 1)
	second := mineOn(t, key, first.Hash(), 2)
	for i := 0; i <= 1; i++ {
		h.bases[i].State.AddBlock(first, 0)
	}
	var sent, held []queuedMsg
	h.tamper = func(qm *queuedMsg) bool {
		sent = append(sent, *qm)
		if _, ok := qm.msg.(*node.GetDataMsg); ok && qm.to == 0 {
			held = append(held, *qm) // the slow link to node 0
			return false
		}
		return true
	}
	// sentOn returns the one message from → to of m's type sent so far.
	sentOn := func(from, to int, m node.Message) node.Message {
		t.Helper()
		var got []node.Message
		for _, qm := range sent {
			if qm.from == from && qm.to == to && qm.msg.Type() == m.Type() {
				got = append(got, qm.msg)
			}
		}
		if len(got) != 1 {
			t.Fatalf("%d → %d sent %d %v messages, want 1", from, to, len(got), m.Type())
		}
		return got[0]
	}
	inv := node.Inv{Type: types.BlockMsgType(first), Hash: first.Hash()}
	h.bases[0].Gossip.Announce(first, -1)
	h.bases[1].Gossip.Announce(first, -1)
	h.drain()
	h.advance(25 * time.Second) // retry to node 1, which delivers
	h.drain()
	if !h.bases[2].State.HasBlock(first.Hash()) || len(held) != 1 {
		t.Fatalf("retry did not deliver the first block (held %d getdata)", len(held))
	}
	shared := sentOn(0, 2, &node.InvMsg{}).(*node.InvMsg)
	if sentOn(1, 2, &node.InvMsg{}) != node.Message(shared) {
		t.Fatal("the two holders announced the first block with different invs")
	}
	gd := held[0].msg.(*node.GetDataMsg)
	if len(gd.Items) != 1 || &gd.Items[0] != &shared.Items[0] {
		t.Fatal("the held getdata is not the received inv sent back")
	}
	reply := sentOn(1, 2, &node.BlockMsg{Block: first}).(*node.BlockMsg)

	for i := 0; i <= 1; i++ {
		h.bases[i].State.AddBlock(second, 0)
	}
	h.bases[1].Gossip.Announce(second, -1)
	h.drain() // the second fetch, on the recycled record, asks node 1
	if !h.bases[2].State.HasBlock(second.Hash()) || h.bases[2].Gossip.PendingFetches() != 0 {
		t.Fatal("the second block's fetch did not complete")
	}

	if len(gd.Items) != 1 || gd.Items[0] != inv {
		t.Fatalf("held getdata now asks for %v, want %v", gd.Items, inv)
	}
	if len(shared.Items) != 1 || shared.Items[0] != inv {
		t.Fatalf("the first block's inv now announces %v, want %v", shared.Items, inv)
	}
	if reply.Block != types.Block(first) {
		t.Fatalf("the first block's reply now delivers %s", reply.Block.Hash().Short())
	}
	h.bases[0].HandleMessage(2, gd)
	q := h.envs[0].queue
	if len(q) != 1 {
		t.Fatalf("node 0 answered the held getdata with %d messages, want 1", len(q))
	}
	if q[0].msg != node.Message(reply) {
		t.Errorf("node 0 answered with %T, want the first block's shared reply", q[0].msg)
	}
}

// TestShardsShareBlockMessages runs two shards at once, each a holder that
// announces one block object and answers a getdata for it and a requester
// that fetches it; under -race it checks that building the block's shared
// messages is race-free. Both shards must send the same inv and the same
// reply, and both requesters must connect the block.
func TestShardsShareBlockMessages(t *testing.T) {
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	key, err := crypto.GenerateKey(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	blk := mineOn(t, key, genesis.Hash(), 1)
	type shard struct {
		holder, fetcher       *node.Base
		holderEnv, fetcherEnv *quietEnv
	}
	var shards [2]shard
	for i := range shards {
		s := &shards[i]
		s.holder, s.holderEnv = quietNode(t, genesis, int64(2*i))
		s.fetcher, s.fetcherEnv = quietNode(t, genesis, int64(2*i+1))
		if res, err := s.holder.State.AddBlock(blk, 0); err != nil || res.Status != chain.StatusMainChain {
			t.Fatalf("holder %d: %v, %v", i, res.Status, err)
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range shards {
		s := &shards[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s.holder.Gossip.Announce(blk, -1)
			s.fetcher.HandleMessage(1, s.holderEnv.sent[0])
			s.holder.HandleMessage(1, s.fetcherEnv.sent[0])
			s.fetcher.HandleMessage(1, s.holderEnv.sent[1])
		}()
	}
	close(start)
	wg.Wait()
	for i, s := range shards {
		if len(s.holderEnv.sent) != 2 || !s.fetcher.State.HasBlock(blk.Hash()) {
			t.Fatalf("shard %d: holder sent %d messages, fetcher has the block: %v", i, len(s.holderEnv.sent), s.fetcher.State.HasBlock(blk.Hash()))
		}
	}
	a, b := shards[0].holderEnv.sent, shards[1].holderEnv.sent
	if a[0] != b[0] || a[1] != b[1] {
		t.Errorf("the shards sent %v and %v, want the block's one inv and one reply", a, b)
	}
}

// TestFetchTimeoutConfigurable asserts the retry timer follows
// Params.FetchTimeout rather than the built-in default — LatencySpike
// scenarios at large scale factors stretch propagation past 20 s and must be
// able to stretch the re-request window with it.
func TestFetchTimeoutConfigurable(t *testing.T) {
	params := types.DefaultParams()
	params.RandomTieBreak = false
	params.FetchTimeout = 2 * time.Minute
	h, genesis, key := newHarnessParams(t, 3, params)
	b1 := mineOn(t, key, genesis.Hash(), 1)
	h.bases[1].State.AddBlock(b1, 0)

	h.mute[0] = true
	inv := node.Inv{Type: types.BlockMsgType(b1), Hash: b1.Hash()}
	h.bases[2].HandleMessage(0, &node.InvMsg{Items: []node.Inv{inv}})
	h.bases[2].HandleMessage(1, &node.InvMsg{Items: []node.Inv{inv}})
	h.drain()

	// The stock 20s default would have retried here; the configured window
	// has not elapsed, so no retry yet.
	h.advance(25 * time.Second)
	h.drain()
	if h.bases[2].State.HasBlock(b1.Hash()) {
		t.Fatal("fetch retried before the configured timeout")
	}
	// The jittered window is [2min, 2.5min); advancing past its upper bound
	// guarantees the retry fired.
	h.advance(150 * time.Second)
	h.drain()
	if !h.bases[2].State.HasBlock(b1.Hash()) {
		t.Error("fetch was not retried after the configured timeout")
	}
}

func TestOrphanParentChase(t *testing.T) {
	h, genesis, key := newHarness(t, 2)
	b1 := mineOn(t, key, genesis.Hash(), 1)
	b2 := mineOn(t, key, b1.Hash(), 2)
	h.bases[0].State.AddBlock(b1, 0)
	h.bases[0].State.AddBlock(b2, 0)

	// Node 1 receives b2 out of the blue: it must chase b1 from sender.
	h.bases[1].HandleMessage(0, &node.BlockMsg{Block: b2})
	h.drain()
	if !h.bases[1].State.HasBlock(b1.Hash()) || !h.bases[1].State.HasBlock(b2.Hash()) {
		t.Error("orphan parent not fetched")
	}
	if h.bases[1].State.Tip().Hash() != b2.Hash() {
		t.Error("orphan cascade did not connect")
	}
}

func TestNoRelayBackToSender(t *testing.T) {
	h, genesis, key := newHarness(t, 2)
	b1 := mineOn(t, key, genesis.Hash(), 1)
	h.bases[1].HandleMessage(0, &node.BlockMsg{Block: b1})
	// Node 1 must not announce b1 back to node 0.
	for _, qm := range h.envs[1].queue {
		if inv, ok := qm.msg.(*node.InvMsg); ok && qm.to == 0 {
			for _, item := range inv.Items {
				if item.Hash == b1.Hash() {
					t.Error("block announced back to its sender")
				}
			}
		}
	}
}

func TestTxRelayFloodsWhenEnabled(t *testing.T) {
	h, _, key := newHarness(t, 3)
	for _, base := range h.bases {
		base.RelayTxs = true
	}
	tx := &types.Transaction{
		Kind:    types.TxRegular,
		Inputs:  []types.TxInput{{Prev: types.OutPoint{Index: 1}}},
		Outputs: []types.TxOutput{{Value: 1, To: crypto.Address{1}}},
	}
	tx.SignInput(0, key)

	if err := h.bases[0].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	h.drain()
	for i := 1; i < 3; i++ {
		if h.bases[i].Pool.Get(tx.ID()) == nil {
			t.Errorf("node %d did not pool the relayed tx", i)
		}
	}
	// Resubmitting is rejected as a duplicate.
	if err := h.bases[0].SubmitTx(tx); err == nil {
		t.Error("duplicate SubmitTx accepted")
	}
	// Malformed transactions are refused outright.
	bad := &types.Transaction{Kind: types.TxRegular}
	if err := h.bases[0].SubmitTx(bad); err == nil {
		t.Error("malformed SubmitTx accepted")
	}
}

func TestTxRelayOffByDefault(t *testing.T) {
	h, _, key := newHarness(t, 2)
	tx := &types.Transaction{
		Kind:    types.TxRegular,
		Inputs:  []types.TxInput{{Prev: types.OutPoint{Index: 2}}},
		Outputs: []types.TxOutput{{Value: 1, To: crypto.Address{1}}},
	}
	tx.SignInput(0, key)
	if err := h.bases[0].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	h.drain()
	if h.bases[1].Pool.Len() != 0 {
		t.Error("transaction relayed despite RelayTxs=false (experiments must not relay, §7)")
	}
}

func TestStaleGetDataIgnored(t *testing.T) {
	h, _, _ := newHarness(t, 2)
	unknown := crypto.HashBytes([]byte("nope"))
	h.bases[0].HandleMessage(1, &node.GetDataMsg{Items: []node.Inv{{Hash: unknown}}})
	if len(h.envs[0].queue) != 0 {
		t.Error("node responded to getdata for unknown block")
	}
}

// TestFetchTimerClearedOnDirectInjection is the regression test for a fetch
// entry outliving its block: when a block enters the chain without passing
// through handleBlock (delivered directly by a harness, or adopted from the
// orphan stash), the armed retry timer used to keep re-requesting a block
// the node already had. The timer must clear the stale entry instead.
func TestFetchTimerClearedOnDirectInjection(t *testing.T) {
	h, genesis, key := newHarness(t, 3)
	b1 := mineOn(t, key, genesis.Hash(), 1)

	// Node 2 starts a fetch whose getdata response never arrives.
	h.mute[0] = true
	inv := node.Inv{Type: types.BlockMsgType(b1), Hash: b1.Hash()}
	h.bases[2].HandleMessage(0, &node.InvMsg{Items: []node.Inv{inv}})
	h.drain()
	if got := h.bases[2].Gossip.PendingFetches(); got != 1 {
		t.Fatalf("pending fetches = %d, want 1", got)
	}

	// The block arrives outside the fetch path (direct injection).
	h.bases[2].ProcessBlock(b1, -1)

	// The retry timer fires: it must drop the stale entry without sending
	// another getdata.
	h.envs[2].queue = nil
	h.advance(25 * time.Second)
	if got := h.bases[2].Gossip.PendingFetches(); got != 0 {
		t.Errorf("pending fetches after timer = %d, want 0", got)
	}
	for _, qm := range h.envs[2].queue {
		if _, ok := qm.msg.(*node.GetDataMsg); ok {
			t.Error("stale timer re-requested a block the node already has")
		}
	}
}

// TestFetchGiveUpHandsOffToSync: when the capped-backoff retry schedule is
// exhausted and the block never arrives, the pending entry is dropped and
// catch-up sync takes over, recovering the block through the locator
// exchange once a peer answers again.
func TestFetchGiveUpHandsOffToSync(t *testing.T) {
	h, genesis, key := newHarness(t, 3)
	b1 := mineOn(t, key, genesis.Hash(), 1)
	// Both peers hold the block so whichever one sync rotates to can serve it.
	h.bases[0].State.AddBlock(b1, 0)
	h.bases[1].State.AddBlock(b1, 0)

	h.mute[0] = true
	h.mute[1] = true
	inv := node.Inv{Type: types.BlockMsgType(b1), Hash: b1.Hash()}
	h.bases[2].HandleMessage(0, &node.InvMsg{Items: []node.Inv{inv}})
	h.bases[2].HandleMessage(1, &node.InvMsg{Items: []node.Inv{inv}})
	h.drain()

	// Capped exponential backoff with ≤25% jitter off a 20 s base: each
	// advance covers the widest possible wait for that attempt, so after the
	// fourth the fetcher has exhausted its schedule and given up.
	for _, d := range []time.Duration{
		25 * time.Second, 50 * time.Second, 100 * time.Second, 200 * time.Second,
	} {
		h.advance(d)
		h.drain()
	}
	if got := h.bases[2].Gossip.PendingFetches(); got != 0 {
		t.Errorf("pending fetches after give-up = %d, want 0", got)
	}
	if !h.bases[2].Sync.Active() {
		t.Fatal("give-up did not hand off to catch-up sync")
	}

	// Once peers answer again, the next sync retry recovers the block and the
	// exchange terminates.
	h.mute[0] = false
	h.mute[1] = false
	for i := 0; i < 4 && !h.bases[2].State.HasBlock(b1.Hash()); i++ {
		h.advance(200 * time.Second)
		h.drain()
	}
	if !h.bases[2].State.HasBlock(b1.Hash()) {
		t.Error("catch-up sync did not recover the block")
	}
	if h.bases[2].Sync.Active() {
		t.Error("sync still active after a terminal batch")
	}
}

// relayTx builds a well-formed loose transaction for relay tests (inputs
// reference nonexistent outputs; the pool's fee resolver degrades them to
// rate zero, which is fine for unbounded pools).
func relayTx(t testing.TB, key *crypto.PrivateKey, idx uint32) *types.Transaction {
	t.Helper()
	tx := &types.Transaction{
		Kind:    types.TxRegular,
		Inputs:  []types.TxInput{{Prev: types.OutPoint{Index: idx}}},
		Outputs: []types.TxOutput{{Value: 1, To: key.Public().Addr()}},
	}
	tx.SignInput(0, key)
	return tx
}

// TestTxRelayImmediate: with TxBatchInterval unset each submitted
// transaction goes out at once in its own TxMsg.
func TestTxRelayImmediate(t *testing.T) {
	h, _, key := newHarness(t, 3)
	for _, b := range h.bases {
		b.RelayTxs = true
	}
	if err := h.bases[0].SubmitTx(relayTx(t, key, 1)); err != nil {
		t.Fatal(err)
	}
	var txMsgs int
	for _, qm := range h.envs[0].queue {
		if _, ok := qm.msg.(*node.TxMsg); ok {
			txMsgs++
		}
	}
	if txMsgs != 2 {
		t.Fatalf("immediate relay sent %d TxMsgs, want 2 (one per peer)", txMsgs)
	}
	h.drain()
	if h.bases[1].Pool.Len() != 1 || h.bases[2].Pool.Len() != 1 {
		t.Fatal("peers did not pool the relayed transaction")
	}
}

// TestTxRelayBatching: with TxBatchInterval set, transactions coalesce
// until the flush timer fires, then go out as one txbatch per peer.
func TestTxRelayBatching(t *testing.T) {
	params := types.DefaultParams()
	params.RandomTieBreak = false
	params.TxBatchInterval = time.Second
	h, _, key := newHarnessParams(t, 3, params)
	for _, b := range h.bases {
		b.RelayTxs = true
	}
	for i := uint32(1); i <= 3; i++ {
		if err := h.bases[0].SubmitTx(relayTx(t, key, i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.envs[0].queue) != 0 {
		t.Fatalf("batching sent %d messages before the flush", len(h.envs[0].queue))
	}
	if got := h.bases[0].Gossip.QueuedTxs(); got != 6 {
		t.Fatalf("queued = %d, want 6 (3 txs x 2 peers)", got)
	}

	h.advance(time.Second)
	var batches int
	for _, qm := range h.envs[0].queue {
		b, ok := qm.msg.(*node.TxBatchMsg)
		if !ok {
			t.Fatalf("flush sent %T, want *node.TxBatchMsg", qm.msg)
		}
		if len(b.Txs) != 3 {
			t.Fatalf("batch carries %d txs, want 3", len(b.Txs))
		}
		batches++
	}
	if batches != 2 {
		t.Fatalf("flush sent %d batches, want 2 (one per peer)", batches)
	}
	if got := h.bases[0].Gossip.QueuedTxs(); got != 0 {
		t.Fatalf("queued after flush = %d, want 0", got)
	}

	// Delivery pools all three at each peer; the peers re-queue them for
	// their own relay (minus the sender) rather than echoing immediately.
	h.pump()
	if h.bases[1].Pool.Len() != 3 || h.bases[2].Pool.Len() != 3 {
		t.Fatal("peers did not pool the batched transactions")
	}
	if got := h.bases[1].Gossip.QueuedTxs(); got != 3 {
		t.Fatalf("peer re-relay queued = %d, want 3 (one peer besides the sender)", got)
	}

	// One envelope per batch beats per-tx framing.
	batch := &node.TxBatchMsg{Txs: []*types.Transaction{
		relayTx(t, key, 7), relayTx(t, key, 8), relayTx(t, key, 9),
	}}
	var singles int
	for _, tx := range batch.Txs {
		singles += (&node.TxMsg{Tx: tx}).Size()
	}
	if batch.Size() >= singles {
		t.Fatalf("batch size %d not smaller than %d for per-tx relay", batch.Size(), singles)
	}
}
