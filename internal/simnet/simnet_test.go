package simnet

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"bitcoinng/internal/sim"
)

func TestTopologyDegreeAndSymmetry(t *testing.T) {
	loop := sim.NewLoop(0)
	net := New(loop, DefaultConfig(200, 1))
	for i := 0; i < net.Size(); i++ {
		if len(net.Peers(i)) < 5 {
			t.Errorf("node %d degree %d < 5", i, len(net.Peers(i)))
		}
		for _, j := range net.Peers(i) {
			found := false
			for _, k := range net.Peers(j) {
				if k == i {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("edge %d->%d not symmetric", i, j)
			}
		}
	}
}

func TestTopologyConnected(t *testing.T) {
	loop := sim.NewLoop(0)
	net := New(loop, DefaultConfig(500, 2))
	seen := make([]bool, net.Size())
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range net.Peers(v) {
			if !seen[w] {
				seen[w] = true
				count++
				queue = append(queue, w)
			}
		}
	}
	if count != net.Size() {
		t.Errorf("reachable %d of %d nodes", count, net.Size())
	}
}

func TestTopologyDeterministic(t *testing.T) {
	a := New(sim.NewLoop(0), DefaultConfig(100, 7))
	b := New(sim.NewLoop(0), DefaultConfig(100, 7))
	for i := 0; i < 100; i++ {
		pa, pb := a.Peers(i), b.Peers(i)
		if len(pa) != len(pb) {
			t.Fatalf("node %d degree differs", i)
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("node %d peer %d differs", i, j)
			}
		}
	}
	// Different seed, different topology (overwhelmingly likely).
	c := New(sim.NewLoop(0), DefaultConfig(100, 8))
	same := true
	for i := 0; i < 100 && same; i++ {
		pa, pc := a.Peers(i), c.Peers(i)
		if len(pa) != len(pc) {
			same = false
			break
		}
		for j := range pa {
			if pa[j] != pc[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical topology")
	}
}

// incrementalTopology is New's overlay as it was built link by link, each
// node's lists grown by append: peers and latencies per node, in link order.
func incrementalTopology(cfg Config) (peers [][]int, lats [][]int64) {
	peers, lats = make([][]int, cfg.Nodes), make([][]int64, cfg.Nodes)
	rng := sim.NewRand(cfg.Seed, 0x7e7)
	connect := func(i, j int) {
		lat := int64(cfg.Latency.Sample(rng))
		peers[i], lats[i] = append(peers[i], j), append(lats[i], lat)
		peers[j], lats[j] = append(peers[j], i), append(lats[j], lat)
	}
	for i := 0; i < cfg.Nodes; i++ {
		for len(peers[i]) < cfg.MinPeers {
			if j := rng.Intn(cfg.Nodes); j != i && !slices.Contains(peers[i], j) {
				connect(i, j)
			}
		}
	}
	parent := make([]int, cfg.Nodes)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, ps := range peers {
		for _, j := range ps {
			parent[find(i)] = find(j)
		}
	}
	root := find(0)
	for i := 1; i < cfg.Nodes; i++ {
		if find(i) != root {
			connect(root, i)
			parent[find(root)] = find(i)
		}
	}
	return peers, lats
}

// TestTopologyMatchesIncrementalBuild: drawing the links into one list and
// cutting every node's slices once gives each node the same peers, in the
// same order, at the same latencies and loss factors as growing them link by
// link, including the links that join stray components.
func TestTopologyMatchesIncrementalBuild(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(300, 3),
		{Nodes: 60, MinPeers: 1, Latency: DefaultLatency(), Seed: 5},
		{Nodes: 9, MinPeers: 20, Latency: DefaultLatency(), Seed: 1},
	} {
		net := New(sim.NewLoop(0), cfg)
		peers, lats := incrementalTopology(net.cfg)
		for i := range peers {
			if !slices.Equal(net.Peers(i), peers[i]) {
				t.Fatalf("nodes %d seed %d: node %d peers %v, built link by link %v", cfg.Nodes, cfg.Seed, i, net.Peers(i), peers[i])
			}
			if cap(net.Peers(i)) != len(peers[i]) || cap(net.out[i]) != len(peers[i]) {
				t.Fatalf("node %d: slices of cap %d and %d hold %d peers", i, cap(net.Peers(i)), cap(net.out[i]), len(peers[i]))
			}
			for k, l := range net.out[i] {
				if l.latency != lats[i][k] || l.lossScale != linkLossScale(cfg.Seed, i, peers[i][k]) {
					t.Fatalf("node %d link %d: %+v, built link by link peer %d latency %d", i, k, l, peers[i][k], lats[i][k])
				}
			}
		}
	}
}

func TestDeliveryTiming(t *testing.T) {
	loop := sim.NewLoop(0)
	cfg := Config{
		Nodes:        2,
		MinPeers:     1,
		Latency:      Fixed(100 * time.Millisecond),
		BandwidthBPS: 100_000, // 100 kbit/s
		Seed:         1,
	}
	net := New(loop, cfg)
	var deliveredAt int64
	var gotSize int
	net.Handle(1, func(from int, payload any, size int) {
		deliveredAt = loop.Now()
		gotSize = size
	})
	// 12500 bytes = 100000 bits = 1 second of transfer at 100 kbit/s.
	net.Send(0, 1, "blk", 12500)
	loop.Drain(0)
	want := int64(time.Second + 100*time.Millisecond)
	if deliveredAt != want {
		t.Errorf("delivered at %d, want %d", deliveredAt, want)
	}
	if gotSize != 12500 {
		t.Errorf("size = %d", gotSize)
	}
}

func TestBandwidthQueueing(t *testing.T) {
	loop := sim.NewLoop(0)
	cfg := Config{
		Nodes:        2,
		MinPeers:     1,
		Latency:      Fixed(0),
		BandwidthBPS: 100_000,
		Seed:         1,
	}
	net := New(loop, cfg)
	var arrivals []int64
	net.Handle(1, func(from int, payload any, size int) {
		arrivals = append(arrivals, loop.Now())
	})
	// Two back-to-back 1-second transfers share the pipe: second arrives
	// at 2s, not 1s.
	net.Send(0, 1, "a", 12500)
	net.Send(0, 1, "b", 12500)
	loop.Drain(0)
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d", len(arrivals))
	}
	if arrivals[0] != int64(time.Second) || arrivals[1] != int64(2*time.Second) {
		t.Errorf("arrivals = %v", arrivals)
	}
	if net.Stats().MaxQueueDelay != time.Second {
		t.Errorf("max queue delay = %v", net.Stats().MaxQueueDelay)
	}
}

func TestLinksQueueIndependently(t *testing.T) {
	loop := sim.NewLoop(0)
	cfg := Config{
		Nodes:        3,
		MinPeers:     2,
		Latency:      Fixed(0),
		BandwidthBPS: 100_000,
		Seed:         1,
	}
	net := New(loop, cfg)
	var at1, at2 int64
	net.Handle(1, func(int, any, int) { at1 = loop.Now() })
	net.Handle(2, func(int, any, int) { at2 = loop.Now() })
	// The paper's model is per-pair bandwidth: parallel links don't share.
	net.Send(0, 1, "a", 12500)
	net.Send(0, 2, "b", 12500)
	loop.Drain(0)
	if at1 != int64(time.Second) || at2 != int64(time.Second) {
		t.Errorf("arrivals %d, %d — links not independent", at1, at2)
	}
}

func TestReceiverProcessingSerializes(t *testing.T) {
	loop := sim.NewLoop(0)
	cfg := Config{
		Nodes:        3,
		MinPeers:     2,
		Latency:      Fixed(0),
		BandwidthBPS: 1e12, // effectively infinite pipe
		ProcPerMsg:   100 * time.Millisecond,
		Seed:         1,
	}
	net := New(loop, cfg)
	var arrivals []int64
	net.Handle(2, func(int, any, int) { arrivals = append(arrivals, loop.Now()) })
	// Two messages from different senders arrive together; processing
	// serializes them 100ms apart.
	net.Send(0, 2, "a", 10)
	net.Send(1, 2, "b", 10)
	loop.Drain(0)
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d", len(arrivals))
	}
	gap := arrivals[1] - arrivals[0]
	if gap != int64(100*time.Millisecond) {
		t.Errorf("processing gap = %v", time.Duration(gap))
	}
}

func TestBroadcastReachesAllPeers(t *testing.T) {
	loop := sim.NewLoop(0)
	net := New(loop, DefaultConfig(50, 3))
	got := make(map[int]bool)
	for _, p := range net.Peers(0) {
		p := p
		net.Handle(p, func(from int, payload any, size int) {
			if from == 0 {
				got[p] = true
			}
		})
	}
	net.Broadcast(0, "hello", 100)
	loop.Drain(0)
	if len(got) != len(net.Peers(0)) {
		t.Errorf("broadcast reached %d of %d peers", len(got), len(net.Peers(0)))
	}
}

func TestHistogramSampling(t *testing.T) {
	h := NewHistogram([]HistogramBucket{
		{Min: 10 * time.Millisecond, Max: 20 * time.Millisecond, Weight: 1},
		{Min: 100 * time.Millisecond, Max: 200 * time.Millisecond, Weight: 1},
	})
	rng := rand.New(rand.NewSource(1))
	low, high := 0, 0
	for i := 0; i < 10000; i++ {
		d := h.Sample(rng)
		switch {
		case d >= 10*time.Millisecond && d < 20*time.Millisecond:
			low++
		case d >= 100*time.Millisecond && d < 200*time.Millisecond:
			high++
		default:
			t.Fatalf("sample %v outside buckets", d)
		}
	}
	ratio := float64(low) / float64(low+high)
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("bucket ratio %.3f, want ~0.5", ratio)
	}
}

func TestDefaultLatencyShape(t *testing.T) {
	h := DefaultLatency()
	rng := rand.New(rand.NewSource(2))
	var samples []time.Duration
	for i := 0; i < 10000; i++ {
		samples = append(samples, h.Sample(rng))
	}
	var sum time.Duration
	for _, s := range samples {
		if s < 5*time.Millisecond || s > 400*time.Millisecond {
			t.Fatalf("sample %v out of range", s)
		}
		sum += s
	}
	mean := sum / time.Duration(len(samples))
	if mean < 80*time.Millisecond || mean > 180*time.Millisecond {
		t.Errorf("mean latency %v outside plausible internet range", mean)
	}
}

func TestSendWithoutLinkPanics(t *testing.T) {
	loop := sim.NewLoop(0)
	cfg := Config{Nodes: 10, MinPeers: 1, Latency: Fixed(0), BandwidthBPS: 1, Seed: 1}
	net := New(loop, cfg)
	// Find a non-adjacent pair.
	var a, b int
	found := false
	for i := 0; i < 10 && !found; i++ {
		for j := 0; j < 10; j++ {
			if i == j || net.linkTo(i, j) != nil {
				continue
			}
			a, b = i, j
			found = true
			break
		}
	}
	if !found {
		t.Skip("graph complete at this size")
	}
	defer func() {
		if recover() == nil {
			t.Error("send without link did not panic")
		}
	}()
	net.Send(a, b, "x", 1)
}

// TestStatsShardedMerge pins the per-field merge semantics of Stats(): the
// volume counters sum across shards while MaxQueueDelay, a worst-case
// observation, takes the maximum.
func TestStatsShardedMerge(t *testing.T) {
	net := New(sim.NewLoop(0), DefaultConfig(4, 1))
	net.Shard([]*sim.Loop{sim.NewLoop(0), sim.NewLoop(0)}, []int{0, 0, 1, 1})
	net.stats[0] = Stats{MessagesSent: 3, BytesSent: 100, MessagesLost: 1, MaxQueueDelay: 5 * time.Millisecond}
	net.stats[1] = Stats{MessagesSent: 4, BytesSent: 200, MessagesLost: 2, MaxQueueDelay: 9 * time.Millisecond}
	want := Stats{MessagesSent: 7, BytesSent: 300, MessagesLost: 3, MaxQueueDelay: 9 * time.Millisecond}
	if got := net.Stats(); got != want {
		t.Errorf("merged stats = %+v, want %+v", got, want)
	}
	// The maximum must win regardless of which shard holds it.
	net.stats[0].MaxQueueDelay = 20 * time.Millisecond
	want.MaxQueueDelay = 20 * time.Millisecond
	if got := net.Stats(); got != want {
		t.Errorf("merged stats = %+v, want %+v", got, want)
	}
}

// TestScaleLatencyAbsoluteFactor pins the spike contract: factors are
// absolute multiples of the configured model (calls replace, never
// compose), 1 restores it, and non-positive factors panic.
func TestScaleLatencyAbsoluteFactor(t *testing.T) {
	loop := sim.NewLoop(0)
	net := New(loop, Config{
		Nodes:        2,
		MinPeers:     1,
		Latency:      Fixed(100 * time.Millisecond),
		BandwidthBPS: 1e12, // negligible transfer time
		Seed:         1,
	})
	var arrivals []time.Duration
	var sent int64
	net.Handle(1, func(from int, payload any, size int) {
		arrivals = append(arrivals, time.Duration(loop.Now()-sent))
	})
	deliver := func() time.Duration {
		sent = loop.Now()
		net.Send(0, 1, "x", 1)
		loop.RunFor(10 * time.Second)
		return arrivals[len(arrivals)-1]
	}

	base := deliver()
	if base < 100*time.Millisecond || base > 101*time.Millisecond {
		t.Fatalf("baseline delivery %v, want ~100ms", base)
	}
	net.ScaleLatency(2)
	if d := deliver(); d < 2*base || d > 2*base+time.Millisecond {
		t.Errorf("2x spike delivery %v, want ~%v", d, 2*base)
	}
	// Overlapping spike: absolute 3x, NOT 2x*3 = 6x.
	net.ScaleLatency(3)
	if d := deliver(); d < 3*base || d > 3*base+time.Millisecond {
		t.Errorf("overlapping 3x spike delivery %v, want ~%v (absolute, not composed)", d, 3*base)
	}
	net.ScaleLatency(1)
	if d := deliver(); d != base {
		t.Errorf("restored delivery %v, want %v", d, base)
	}

	for _, bad := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScaleLatency(%v) did not panic", bad)
				}
			}()
			net.ScaleLatency(bad)
		}()
	}
}

// TestSendToNonNeighbourPanics pins what a send over a link that does not
// exist means: a programmer error, not a lost message. The overlay has no
// routing, and the harness only sends between neighbours (an equivocation
// goes to one of the leader's neighbours), so nothing may count it as loss.
func TestSendToNonNeighbourPanics(t *testing.T) {
	net := New(sim.NewLoop(0), DefaultConfig(30, 1))
	from, to := 0, -1
	for j := 1; j < net.Size() && to < 0; j++ {
		if !slices.Contains(net.Peers(from), j) {
			to = j
		}
	}
	if to < 0 {
		t.Fatal("fixture: node 0 is linked to everyone")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("a send %d->%d over no link did not panic", from, to)
		}
		if s := net.Stats(); s.MessagesSent != 0 || s.MessagesLost != 0 {
			t.Errorf("the refused send was counted: %+v", s)
		}
	}()
	net.Send(from, to, "payload", 100)
}
