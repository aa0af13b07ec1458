package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bitcoinng/internal/sim"
)

// hop is the recycling test's gossip message: who started it and how many
// more hops it may take.
type hop struct{ origin, seq, ttl int }

// gossipNode runs the recycling test's toy protocol on one node. Its fields
// are touched only by events on the node's own shard (and read by the
// driver while the shards are parked).
type gossipNode struct {
	id     int
	net    *Network
	loop   *sim.Loop
	rng    *rand.Rand
	digest uint64
	seq    int
	// lastTo is when this node last sent to the crash victim.
	lastTo int64
}

func (g *gossipNode) mix(v int64) { g.digest = (g.digest ^ uint64(v)) * 1099511628211 }

func (g *gossipNode) send(to int, m *hop, victim int) {
	if to == victim {
		g.lastTo = g.loop.Now()
	}
	g.net.Send(g.id, to, m, 200+m.ttl)
}

// runRecycling drives lossy gossip with a mid-run crash and a one-way
// cross-shard phase on the given number of shards, and returns the run's
// digest. On more than one shard it checks at every barrier that the
// hand-back lists are drained and the free lists stay within their cap, and
// returns the largest free list it saw.
func runRecycling(t *testing.T, shards int) (digest string, maxFree int) {
	t.Helper()
	const (
		nodes  = 24
		oneWay = 600 * time.Millisecond // phase 2 starts: only shard 0 sends, no forwarding
		end    = 1600 * time.Millisecond
		crash  = 300*time.Millisecond + 12345
		revive = crash + 80*time.Millisecond
		victim = nodes - 1
		period = 2 * time.Millisecond
	)
	cfg := DefaultConfig(nodes, 7)
	// Links keep up with the one-way phase.
	cfg.BandwidthBPS = 1e9
	// The 4-shard cut, which the traffic follows on one loop too.
	shardOf := func(id int) int { return id * 4 / nodes }

	var (
		net      *Network
		loopOf   func(id int) *sim.Loop
		at       func(at time.Duration, fn func())
		run      func()
		inFlight bool
	)
	if shards == 1 {
		loop := sim.NewLoop(0)
		net = New(loop, cfg)
		loopOf = func(int) *sim.Loop { return loop }
		at = func(d time.Duration, fn func()) { loop.At(int64(d), fn) }
		run = func() { loop.RunUntil(int64(end)) }
	} else {
		sl := sim.NewShardedLoop(0, shards)
		defer sl.Close()
		loops := make([]*sim.Loop, shards)
		for i := range loops {
			loops[i] = sl.Shard(i)
		}
		assign := make([]int, nodes)
		for i := range assign {
			assign[i] = i * shards / nodes
		}
		net = New(loops[0], cfg)
		net.Shard(loops, assign)
		sl.SetLookahead(net.MinCrossShardLatency())
		sl.OnBarrier(net.FlushOutboxes)
		sl.OnBarrier(func() {
			for s := range net.pools {
				p := &net.pools[s]
				if p.back != nil {
					t.Errorf("shard %d: hand-back list not drained at the barrier", s)
				}
				if p.nfree > maxFree {
					maxFree = p.nfree
				}
			}
		})
		loopOf = func(id int) *sim.Loop { return loops[assign[id]] }
		at = func(d time.Duration, fn func()) { sl.ScheduleGlobal(int64(d), fn) }
		run = func() { sl.RunUntil(int64(end)) }
	}
	net.SetLoss(Loss{Drop: 0.05, Duplicate: 0.05, Reorder: 0.05})

	gs := make([]*gossipNode, nodes)
	for i := range gs {
		gs[i] = &gossipNode{id: i, net: net, loop: loopOf(i), rng: sim.NewRand(7, uint64(100+i))}
	}
	for i := range gs {
		g := gs[i]
		net.Handle(i, func(from int, payload any, size int) {
			m := payload.(*hop)
			g.mix(g.loop.Now())
			g.mix(int64(from<<32 | size))
			g.mix(int64(m.origin<<32 | m.seq))
			if m.ttl > 0 && g.loop.Now() < int64(oneWay) {
				peers := net.Peers(g.id)
				g.send(peers[g.rng.Intn(len(peers))], &hop{m.origin, m.seq, m.ttl - 1}, victim)
			}
		})
		var tick func()
		tick = func() {
			now := g.loop.Now()
			peers := net.Peers(g.id)
			switch {
			case now < int64(oneWay):
				g.seq++
				g.send(peers[g.rng.Intn(len(peers))], &hop{g.id, g.seq, 3}, victim)
			case shardOf(g.id) == 0:
				// Twice the rate, to every peer off shard 0: each receiving
				// shard finishes several times a free list's cap.
				for _, p := range peers {
					if shardOf(p) != 0 {
						g.seq++
						g.send(p, &hop{g.id, g.seq, 0}, victim)
					}
				}
				g.loop.At(now+int64(period/2), tick)
				return
			default:
				return // receivers stop sending in the one-way phase
			}
			g.loop.At(now+int64(period), tick)
		}
		g.loop.At(int64(i)*7919+1, tick)
	}
	at(crash, func() {
		for _, p := range net.Peers(victim) {
			if gs[p].lastTo > int64(crash)-net.linkTo(p, victim).latency {
				inFlight = true
			}
		}
		net.SetNodeDown(victim, true)
	})
	at(revive, func() { net.SetNodeDown(victim, false) })
	run()
	if !inFlight {
		t.Error("no message was in flight to the victim when it crashed")
	}

	h := uint64(14695981039346656037)
	for _, g := range gs {
		h = (h ^ g.digest) * 1099511628211
	}
	st := net.Stats()
	return fmt.Sprintf("%016x sent=%d lost=%d dropped=%d dup=%d reordered=%d",
		h, st.MessagesSent, st.MessagesLost, st.MessagesDropped, st.MessagesDuplicated, st.MessagesReordered), maxFree
}

// TestRecyclingShardedMatchesSequential runs lossy gossip (drop, duplicate
// and reorder) on four shards, crashes a node while messages are in flight
// to it, then lets traffic flow one way out of shard 0. Recycled deliveries
// must leave the run byte-identical to the sequential one, and every free
// list must stay bounded: the receiving shards hand the one-way traffic's
// deliveries back instead of piling them up. make race-faults runs it under
// -race, where the pools' handoffs between shard goroutines are checked.
func TestRecyclingShardedMatchesSequential(t *testing.T) {
	seq, _ := runRecycling(t, 1)
	par, maxFree := runRecycling(t, 4)
	if par != seq {
		t.Fatalf("4 shards diverge from the sequential run:\n  seq %s\n  par %s", seq, par)
	}
	if maxFree > maxFreeDeliveries {
		t.Fatalf("a free list grew to %d deliveries, over its cap of %d", maxFree, maxFreeDeliveries)
	}
	t.Logf("digest %s, largest free list %d", seq, maxFree)
}
