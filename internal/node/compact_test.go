package node_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"bitcoinng/internal/core"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

// newCompactHarness is n relaying Bitcoin-NG nodes on the hand-pumped
// fabric, node 0 the epoch leader, and txs transactions spending genesis
// outputs, pooled at the leader only. Microblocks are mined by hand
// (mineMicro); the production timer never fires within a test.
func newCompactHarness(t *testing.T, n, txs int) (*harness, *core.Node, []*types.Transaction) {
	t.Helper()
	params := types.DefaultParams()
	params.RandomTieBreak = false
	params.RetargetWindow = 0
	params.MicroblockInterval = time.Hour
	params.MinMicroblockInterval = time.Millisecond
	key, err := crypto.GenerateKey(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	payouts := make([]types.TxOutput, txs)
	for i := range payouts {
		payouts[i] = types.TxOutput{Value: 10_000, To: key.Public().Addr()}
	}
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget, Payouts: payouts})
	h := &harness{
		t:     t,
		envs:  make(map[int]*fakeEnv),
		bases: make(map[int]*node.Base),
		mute:  make(map[int]bool),
	}
	var leader *core.Node
	for i := 0; i < n; i++ {
		peers := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, j)
			}
		}
		env := &fakeEnv{h: h, id: i, peers: peers, rng: rand.New(rand.NewSource(int64(i)))}
		ng, err := core.New(env, core.Config{Params: params, Key: key, Genesis: genesis, SimulatedMining: true})
		if err != nil {
			t.Fatal(err)
		}
		ng.RelayTxs = true
		h.envs[i], h.bases[i] = env, ng.Base
		if i == 0 {
			leader = ng
		}
	}
	h.advance(time.Second)
	leader.MineKeyBlock()
	h.drain()
	pool := make([]*types.Transaction, txs)
	for i := range pool {
		tx := &types.Transaction{
			Kind:    types.TxRegular,
			Inputs:  []types.TxInput{{Prev: types.OutPoint{TxID: genesis.Txs[0].ID(), Index: uint32(i)}}},
			Outputs: []types.TxOutput{{Value: 9_000, To: crypto.Address{byte(i)}}},
			Padding: make([]byte, 200),
		}
		tx.SignInput(0, key)
		pool[i] = tx
	}
	poolAt(t, leader.Base, pool...)
	h.delivered = nil
	return h, leader, pool
}

// poolAt adds txs to b's pool without relaying them.
func poolAt(t *testing.T, b *node.Base, txs ...*types.Transaction) {
	t.Helper()
	for _, tx := range txs {
		if err := b.Pool.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
}

// mineMicro has the leader mine and announce a microblock holding every
// pooled transaction.
func mineMicro(t *testing.T, h *harness, leader *core.Node, txs int) *types.MicroBlock {
	t.Helper()
	h.advance(time.Second)
	mb := leader.MineMicroBlock()
	if mb == nil || len(mb.Txs) != txs {
		t.Fatalf("leader mined %v, want a microblock of %d transactions", mb, txs)
	}
	return mb
}

// indexesOf returns the positions in mb of the transactions in txs.
func indexesOf(mb *types.MicroBlock, txs ...*types.Transaction) []uint32 {
	var out []uint32
	for i, tx := range mb.Txs {
		if slices.Contains(txs, tx) {
			out = append(out, uint32(i))
		}
	}
	return out
}

// sent returns the delivered messages of type T, in delivery order.
func sent[T node.Message](h *harness) []T {
	var out []T
	for _, qm := range h.delivered {
		if m, ok := qm.msg.(T); ok {
			out = append(out, m)
		}
	}
	return out
}

// bothPaths runs f with messages delivered as Go objects (the simulator) and
// as decoded frames (the live path).
func bothPaths(t *testing.T, f func(t *testing.T, live bool)) {
	for _, live := range []bool{false, true} {
		name := "simulated"
		if live {
			name = "decoded"
		}
		t.Run(name, func(t *testing.T) { f(t, live) })
	}
}

// TestCompactBlockRebuildsFromPool: a receiver whose pool holds every
// transaction takes the microblock as a compact block and asks for nothing
// more. Decoded, the block it connects is rebuilt from its pool — a distinct
// object with the same hash, checked by its own chain state.
func TestCompactBlockRebuildsFromPool(t *testing.T) {
	bothPaths(t, func(t *testing.T, live bool) {
		h, leader, txs := newCompactHarness(t, 2, 5)
		h.wire = live
		poolAt(t, h.bases[1], txs...)
		mb := mineMicro(t, h, leader, len(txs))
		h.drain()

		tip := h.bases[1].State.Tip()
		if tip.Hash() != mb.Hash() {
			t.Fatal("the receiver did not connect the microblock")
		}
		if rebuilt := tip.Block() != types.Block(mb); rebuilt != live {
			t.Errorf("connected a rebuilt block: %v, want %v", rebuilt, live)
		}
		if n := len(sent[*node.CompactBlockMsg](h)); n != 1 {
			t.Errorf("%d compact blocks delivered, want 1", n)
		}
		if n := len(sent[*node.BlockMsg](h)) + len(sent[*node.GetBlockTxnMsg](h)); n != 0 {
			t.Errorf("%d full blocks or getblocktxns sent for a block the pool covers", n)
		}
		if n := h.bases[1].Pool.Len(); n != 0 {
			t.Errorf("receiver still pools %d confirmed transactions", n)
		}
	})
}

// TestCompactBlockFetchesMissing: a receiver missing k transactions sends one
// getblocktxn naming exactly those k, and connects the block after the reply.
func TestCompactBlockFetchesMissing(t *testing.T) {
	bothPaths(t, func(t *testing.T, live bool) {
		h, leader, txs := newCompactHarness(t, 2, 6)
		h.wire = live
		poolAt(t, h.bases[1], txs[0], txs[2], txs[4], txs[5])
		mb := mineMicro(t, h, leader, len(txs))
		h.drain()

		reqs := sent[*node.GetBlockTxnMsg](h)
		if len(reqs) != 1 {
			t.Fatalf("%d getblocktxns sent, want 1", len(reqs))
		}
		if want := indexesOf(mb, txs[1], txs[3]); !slices.Equal(reqs[0].Indexes, want) {
			t.Errorf("getblocktxn names %v, want %v", reqs[0].Indexes, want)
		}
		if n := len(sent[*node.BlockTxnMsg](h)); n != 1 {
			t.Errorf("%d blocktxns delivered, want 1", n)
		}
		if h.bases[1].State.Tip().Hash() != mb.Hash() {
			t.Error("the receiver did not connect the microblock")
		}
		if n := h.bases[1].Gossip.PendingFetches(); n != 0 {
			t.Errorf("%d fetches left pending", n)
		}
	})
}

// TestCompactBlockEmptyPool: a receiver with an empty pool, as after a
// restart, asks for every transaction and converges.
func TestCompactBlockEmptyPool(t *testing.T) {
	bothPaths(t, func(t *testing.T, live bool) {
		h, leader, txs := newCompactHarness(t, 3, 4)
		h.wire = live
		mb := mineMicro(t, h, leader, len(txs))
		h.drain()
		reqs := sent[*node.GetBlockTxnMsg](h)
		if len(reqs) != 2 {
			t.Errorf("%d getblocktxns sent, want one per receiver", len(reqs))
		}
		for _, req := range reqs {
			if want := indexesOf(mb, txs...); !slices.Equal(req.Indexes, want) {
				t.Errorf("getblocktxn names %v, want every index %v", req.Indexes, want)
			}
		}
		for i := 1; i < 3; i++ {
			if h.bases[i].State.Tip().Hash() != mb.Hash() {
				t.Errorf("node %d did not connect the microblock", i)
			}
		}
	})
}

// TestCompactBadReplyDropped: a blocktxn whose transactions do not carry the
// IDs asked for — one swapped for another, or one left out — is dropped
// whole, and the fetch retry completes the block.
func TestCompactBadReplyDropped(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(txs, others []*types.Transaction) []*types.Transaction
	}{
		{"wrong", func(txs, others []*types.Transaction) []*types.Transaction {
			return []*types.Transaction{txs[0], others[0]}
		}},
		{"missing", func(txs, _ []*types.Transaction) []*types.Transaction { return txs[:1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bothPaths(t, func(t *testing.T, live bool) {
				h, leader, txs := newCompactHarness(t, 2, 4)
				h.wire = live
				poolAt(t, h.bases[1], txs[0], txs[3])
				mb := mineMicro(t, h, leader, len(txs))
				tampered := false
				h.tamper = func(qm *queuedMsg) bool {
					if m, ok := qm.msg.(*node.BlockTxnMsg); ok && !tampered {
						tampered = true
						qm.msg = &node.BlockTxnMsg{Hash: m.Hash, Txs: tc.bad(m.Txs, txs)}
					}
					return true
				}
				h.drain()
				if !tampered {
					t.Fatal("no blocktxn was sent")
				}
				if h.bases[1].State.HasBlock(mb.Hash()) {
					t.Fatal("a bad reply completed the block")
				}
				if n := h.bases[1].Gossip.PendingFetches(); n != 1 {
					t.Fatalf("%d fetches pending after a bad reply, want 1", n)
				}
				h.advance(30 * time.Second)
				h.drain()
				if h.bases[1].State.Tip().Hash() != mb.Hash() {
					t.Error("the fetch retry did not complete the block")
				}
			})
		})
	}
}

// TestCompactExchangeLossRecovered: a compact block or a blocktxn lost on
// the link is recovered by the fetch retry.
func TestCompactExchangeLossRecovered(t *testing.T) {
	for _, lost := range []wire.MsgType{wire.MsgCompactBlock, wire.MsgBlockTxn} {
		t.Run(lost.String(), func(t *testing.T) {
			bothPaths(t, func(t *testing.T, live bool) {
				h, leader, txs := newCompactHarness(t, 2, 3)
				h.wire = live
				poolAt(t, h.bases[1], txs[1])
				mb := mineMicro(t, h, leader, len(txs))
				dropped := false
				h.tamper = func(qm *queuedMsg) bool {
					if qm.msg.Type() == lost && !dropped {
						dropped = true
						return false
					}
					return true
				}
				h.drain()
				if !dropped || h.bases[1].State.HasBlock(mb.Hash()) {
					t.Fatalf("dropped %v, block connected %v: the loss did not bite", dropped, h.bases[1].State.HasBlock(mb.Hash()))
				}
				h.advance(30 * time.Second)
				h.drain()
				if h.bases[1].State.Tip().Hash() != mb.Hash() {
					t.Errorf("the fetch retry did not recover the lost %v", lost)
				}
			})
		})
	}
}

// TestNonRelayingRequesterGetsFullBlock: a node that does not relay loose
// transactions has no pool to fill a compact block from, so it asks for, and
// gets, the plain block; a relaying node asks compactly for microblocks only.
func TestNonRelayingRequesterGetsFullBlock(t *testing.T) {
	h, leader, txs := newCompactHarness(t, 3, 2)
	h.bases[2].RelayTxs = false
	mb := mineMicro(t, h, leader, len(txs))
	h.drain()
	for _, qm := range h.delivered {
		switch m := qm.msg.(type) {
		case *node.GetDataMsg:
			want := wire.MsgCompactBlock
			if qm.from == 2 {
				want = wire.MsgMicroBlock
			}
			if m.Items[0].Type != want {
				t.Errorf("node %d asked with %v, want %v", qm.from, m.Items[0].Type, want)
			}
		case *node.BlockMsg:
			if qm.to != 2 {
				t.Errorf("relaying node %d got a full microblock", qm.to)
			}
		case *node.CompactBlockMsg:
			if qm.to == 2 {
				t.Error("the non-relaying node got a compact block")
			}
		}
	}
	for i := 1; i < 3; i++ {
		if h.bases[i].State.Tip().Hash() != mb.Hash() {
			t.Errorf("node %d did not connect the microblock", i)
		}
	}

	// A key block travels whole even to a relaying node.
	h.delivered = nil
	h.advance(time.Second)
	kb := leader.MineKeyBlock()
	h.drain()
	if n := len(sent[*node.CompactBlockMsg](h)); n != 0 || !h.bases[1].State.HasBlock(kb.Hash()) {
		t.Errorf("key block: %d compact deliveries, connected %v", n, h.bases[1].State.HasBlock(kb.Hash()))
	}
}

// TestCompactBlockFetchesPoison: a poison transaction is in no pool, so a
// microblock carrying one arrives as IDs like any other, and the receiver
// fetches the poison by getblocktxn along with whatever else it lacks.
func TestCompactBlockFetchesPoison(t *testing.T) {
	bothPaths(t, func(t *testing.T, live bool) {
		h, leader, txs := newCompactHarness(t, 2, 1)
		h.wire = live
		poolAt(t, h.bases[1], txs...)
		culprit := leader.State.Tip().Block().Transactions()[0].ID()

		// The leader signs two siblings and sees both, so it holds evidence
		// against its own epoch; a later key block lets it place the poison.
		h.advance(time.Second)
		a, b, err := leader.Equivocate(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		leader.ProcessBlock(a, 1)
		leader.ProcessBlock(b, 1)
		h.drain()
		if len(leader.KnownFrauds()) != 1 {
			t.Fatalf("leader recorded %d frauds, want 1", len(leader.KnownFrauds()))
		}
		h.advance(time.Second)
		leader.MineKeyBlock()
		h.drain()

		h.delivered = nil
		mb := mineMicro(t, h, leader, 2)
		h.drain()
		var poison []*types.Transaction
		for _, tx := range mb.Txs {
			if tx.Kind == types.TxPoison {
				poison = append(poison, tx)
			}
		}
		if len(poison) != 1 {
			t.Fatalf("the microblock carries %d poison transactions, want 1", len(poison))
		}
		reqs := sent[*node.GetBlockTxnMsg](h)
		if len(reqs) != 1 || !slices.Equal(reqs[0].Indexes, indexesOf(mb, poison...)) {
			t.Fatalf("getblocktxns %v, want one naming the poison at %v", reqs, indexesOf(mb, poison...))
		}
		if h.bases[1].State.Tip().Hash() != mb.Hash() || !h.bases[1].State.UTXO().Poisoned(culprit) {
			t.Error("the receiver did not connect the poison microblock")
		}
	})
}
