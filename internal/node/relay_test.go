package node_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
)

// perPeerModel is the relay queue as it was before the single ordered queue:
// a map of per-peer slices filled at RelayTx time from the peer set of that
// moment. The live implementation must produce its batches.
type perPeerModel map[int][]*types.Transaction

func (m perPeerModel) relay(peers []int, tx *types.Transaction, except int) {
	for _, p := range peers {
		if p != except {
			m[p] = append(m[p], tx)
		}
	}
}

func (m perPeerModel) queued() int {
	n := 0
	for _, q := range m {
		n += len(q)
	}
	return n
}

// flush returns the batches in send order and empties the model; queues of
// peers that vanished are dropped.
func (m perPeerModel) flush(peers []int) (to []int, batches [][]*types.Transaction) {
	for _, p := range peers {
		if len(m[p]) > 0 {
			to, batches = append(to, p), append(batches, m[p])
		}
	}
	clear(m)
	return to, batches
}

// relayHarness is one batching node with d peers and a pool of prepared
// transactions.
func relayHarness(t testing.TB, d, txs int) (*harness, *node.Gossip, *fakeEnv, []*types.Transaction) {
	params := types.DefaultParams()
	params.RandomTieBreak = false
	params.TxBatchInterval = time.Second
	h, _, key := newHarnessParams(t, d+1, params)
	pool := make([]*types.Transaction, txs)
	for i := range pool {
		pool[i] = relayTx(t, key, uint32(i))
	}
	return h, h.bases[0].Gossip, h.envs[0], pool
}

// TestRelayQueueMatchesPerPeerModel drives random RelayTx / flush /
// peer-vanishes sequences through the gossip relay and the per-peer reference
// model: same batches to the same peers in the same order, and the same
// QueuedTxs() after every step. Peers only ever leave mid-window — one that
// joins mid-window is the documented difference (it now receives the whole
// window) — and rejoin right after a flush.
func TestRelayQueueMatchesPerPeerModel(t *testing.T) {
	const peers = 6
	h, g, env, pool := relayHarness(t, peers, 40)
	all := slices.Clone(env.peers)
	rng := rand.New(rand.NewSource(7))
	model := perPeerModel{}
	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(10); {
		case r < 7:
			// except is a current peer, a vanished one, or nobody.
			except := rng.Intn(peers+2) - 1
			tx := pool[rng.Intn(len(pool))]
			model.relay(env.peers, tx, except)
			g.RelayTx(tx, except)
		case r < 8 && len(env.peers) > 0:
			i := rng.Intn(len(env.peers))
			env.peers = slices.Delete(slices.Clone(env.peers), i, i+1)
		default:
			wantTo, want := model.flush(env.peers)
			env.queue = nil
			h.advance(time.Second)
			if len(env.queue) != len(want) {
				t.Fatalf("step %d: flush sent %d batches, model %d", step, len(env.queue), len(want))
			}
			for i, qm := range env.queue {
				b, ok := qm.msg.(*node.TxBatchMsg)
				if !ok || qm.to != wantTo[i] || !slices.Equal(b.Txs, want[i]) {
					t.Fatalf("step %d: batch %d to peer %d differs from the model's to peer %d", step, i, qm.to, wantTo[i])
				}
				if cap(b.Txs) != len(b.Txs) {
					t.Fatalf("step %d: batch of %d txs sits in a slice of cap %d", step, len(b.Txs), cap(b.Txs))
				}
			}
			env.peers = slices.Clone(all)
		}
		if got, want := g.QueuedTxs(), model.queued(); got != want {
			t.Fatalf("step %d: QueuedTxs = %d, model %d", step, got, want)
		}
	}
}

// TestRelayFlushAllocations pins one flush of k queued transactions to d
// peers at 2d allocations — a batch message and its exactly-sized slice per
// peer. The same window with no peers (nothing to build) is the baseline
// that takes out the fake environment's timer.
func TestRelayFlushAllocations(t *testing.T) {
	const d, k = 8, 50
	_, g, env, pool := relayHarness(t, d, k)
	env.queue = make([]queuedMsg, 0, d)
	peers := env.peers
	window := func() {
		for i, tx := range pool {
			g.RelayTx(tx, i%(d+1))
		}
		fire := env.timers[0].fn
		env.timers = env.timers[:0]
		fire()
		env.queue = env.queue[:0]
	}
	withPeers := testing.AllocsPerRun(20, window)
	env.peers = nil
	baseline := testing.AllocsPerRun(20, window)
	env.peers = peers
	if flush := withPeers - baseline; flush > 2*d {
		t.Errorf("flush of %d txs to %d peers allocates %v times, want <= %d", k, d, flush, 2*d)
	}
	if baseline > 2 {
		t.Errorf("queueing %d relays into a warm window allocates %v times, want only the timer", k, baseline)
	}
}

// BenchmarkRelayFlush is one flush window on a 16-node mesh: 50 relays
// queued, then 15 batches built and sent.
func BenchmarkRelayFlush(b *testing.B) {
	const d, k = 15, 50
	_, g, env, pool := relayHarness(b, d, k)
	b.ReportAllocs()
	for b.Loop() {
		for i, tx := range pool {
			g.RelayTx(tx, i%(d+1))
		}
		fire := env.timers[0].fn
		env.timers = env.timers[:0]
		fire()
		env.queue = env.queue[:0]
	}
}
