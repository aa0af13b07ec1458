package chain

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
	"bitcoinng/internal/validate"
)

// These tests pin what a fleet of states over one connect cache does to its
// ledgers: which connects adopt a shared state, which replay, what the
// operation counters say either way, and that the contents never depend on
// it. They are quick on purpose — they run under -short, so CI's race job
// covers them.

// probeLedger is a memory-backed ledger that records, per RedoBlock and
// UndoBlock, how many heap objects the call allocated — none when the set
// adopted the recorded state, some when it replayed the op log — and how
// many blocks it was asked to compute.
type probeLedger struct {
	*utxo.Set
	redo, undo []uint64
	applies    int
}

func mallocsOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func (p *probeLedger) ApplyBlock(txs []*types.Transaction, ctx utxo.BlockContext) (*utxo.Delta, []types.Amount, error) {
	p.applies++
	return p.Set.ApplyBlock(txs, ctx)
}

func (p *probeLedger) RedoBlock(d *utxo.Delta, at utxo.BlockRef) {
	p.redo = append(p.redo, mallocsOf(func() { p.Set.RedoBlock(d, at) }))
}

func (p *probeLedger) UndoBlock(d *utxo.Delta, at utxo.BlockRef) {
	p.undo = append(p.undo, mallocsOf(func() { p.Set.UndoBlock(d, at) }))
}

// fleetChain is a Bitcoin-NG chain built apart from any state: a funded
// genesis, a key block, microblocks of 1, 8, 24 and 2 spends, a second key
// block on the third microblock — which prunes the fourth at every node that
// connected it — and two more microblocks under the new leader.
type fleetChain struct {
	genesis *types.PowBlock
	params  types.Params
	blocks  []types.Block // in delivery order
	prune   int           // index of the pruning key block

	// What a test needs to extend the chain past its tip: the builder (whose
	// key owns every funded output), the leader of the open epoch, and the
	// next genesis output nothing has spent.
	fix    *fixture
	leader *crypto.PrivateKey
	funded uint32
}

func buildFleetChain(t *testing.T) *fleetChain {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	key, err := crypto.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	leaderA, _ := crypto.GenerateKey(rng)
	leaderB, _ := crypto.GenerateKey(rng)
	payouts := make([]types.TxOutput, 48)
	for i := range payouts {
		payouts[i] = types.TxOutput{Value: 1000, To: key.Public().Addr()}
	}
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget, Payouts: payouts})
	f := &fixture{t: t, key: key, genesis: genesis}
	funded := 0
	spends := func(n int) []*types.Transaction {
		txs := make([]*types.Transaction, n)
		for i := range txs {
			txs[i] = f.spend(types.OutPoint{TxID: genesis.Txs[0].ID(), Index: uint32(funded)}, 400, crypto.Address{byte(funded)})
			funded++
		}
		return txs
	}
	c := &fleetChain{genesis: genesis, params: types.DefaultParams()}
	add := func(b types.Block) crypto.Hash {
		c.blocks = append(c.blocks, b)
		return b.Hash()
	}
	tip := add(f.keyBlock(genesis.Hash(), leaderA))
	for _, n := range []int{1, 8, 24} {
		tip = add(f.microBlock(tip, leaderA, spends(n)...))
	}
	add(f.microBlock(tip, leaderA, spends(2)...)) // pruned below
	c.prune = len(c.blocks)
	tip = add(f.keyBlock(tip, leaderB))
	for _, n := range []int{4, 3} {
		tip = add(f.microBlock(tip, leaderB, spends(n)...))
	}
	c.fix, c.leader, c.funded = f, leaderB, uint32(funded)
	return c
}

// state builds a State over the given ledger and cache (nil: cache off).
func (c *fleetChain) state(t *testing.T, ledger UTXOStore, cache *validate.Cache) *State {
	t.Helper()
	st, err := New(c.genesis, c.params, openProtocol{}, &HeaviestChain{}, WithUTXOStore(ledger), WithConnectCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func (c *fleetChain) deliver(t *testing.T, st *State, i int) {
	t.Helper()
	b := c.blocks[i]
	if _, err := st.AddBlock(b, b.Time()); err != nil {
		t.Fatalf("block %d: %v", i, err)
	}
	if st.Tip().Hash() != b.Hash() {
		t.Fatalf("block %d did not become the tip", i)
	}
}

// contentsOf reads a ledger through Range, which moves no counter.
func contentsOf(u UTXOStore) map[types.OutPoint]utxo.Entry {
	m := map[types.OutPoint]utxo.Entry{}
	u.Range(func(op types.OutPoint, e utxo.Entry) bool { m[op] = e; return true })
	return m
}

func sameLedger(t *testing.T, what string, got, want map[types.OutPoint]utxo.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for op, e := range want {
		if g, ok := got[op]; !ok || g != e {
			t.Fatalf("%s: %v = %+v (present %v), want %+v", what, op, g, ok, e)
		}
	}
}

// unknownVersionLedger returns an empty memory-backed ledger whose version a
// raw write has voided: the set that can only replay. base is what the raw
// writes themselves counted.
func unknownVersionLedger() (ledger *probeLedger, base utxo.Stats) {
	be := utxo.NewMemBackend()
	stray := types.OutPoint{TxID: crypto.Hash{0xEE}}
	be.Put(stray, utxo.Entry{})
	be.Delete(stray)
	ledger = &probeLedger{Set: utxo.NewWith(be)}
	return ledger, ledger.Stats()
}

// TestFleetAdoptsEveryHit: 64 states over one cache connect the chain block
// by block, state 0 always first. Every cache hit — the 63 followers on every
// block, the prune's undo and the key block after it included, and one node
// that is Reset and replays the whole chain — adopts: the call allocates
// nothing, whatever the block's size. The operation counters nevertheless
// read exactly what a replaying set's do, and the contents equal those of a
// twin that never saw a cache.
func TestFleetAdoptsEveryHit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a quiet Mallocs counter, as testing.AllocsPerRun arranges
	c := buildFleetChain(t)
	cache := validate.NewCache(0)

	ledgers := make([]*probeLedger, 64)
	fleet := make([]*State, len(ledgers))
	for i := range fleet {
		ledgers[i] = &probeLedger{Set: utxo.New()}
		fleet[i] = c.state(t, ledgers[i], cache)
	}
	replayerLedger, replayerBase := unknownVersionLedger()
	replayer := c.state(t, replayerLedger, cache)
	twin := c.state(t, utxo.New(), nil)

	// Whether a version matches decides adoption; whether the collector has
	// already taken a state nobody stands on must not, so the test stands on
	// all of them: one clone of the leader's ledger per height.
	pins := []*utxo.Set{ledgers[0].Clone()}
	for i := range c.blocks {
		for _, st := range fleet {
			c.deliver(t, st, i)
		}
		c.deliver(t, replayer, i)
		c.deliver(t, twin, i)
		pins = append(pins, ledgers[0].Clone())
		for n, l := range ledgers {
			if l.Version() != ledgers[0].Version() || l.Version() == (utxo.Version{}) {
				t.Fatalf("block %d: node %d is not on the leader's ledger version", i, n)
			}
		}
	}
	want := contentsOf(twin.UTXO())

	// Node 7 crashes and restarts: ledger Reset, fresh tree, full replay.
	if err := ledgers[7].Reset(); err != nil {
		t.Fatal(err)
	}
	fleet[7] = c.state(t, ledgers[7], cache)
	for i := range c.blocks {
		c.deliver(t, fleet[7], i)
	}
	if ledgers[7].Version() != ledgers[0].Version() {
		t.Fatal("restarted node did not replay its way back to the fleet's ledger version")
	}

	if ledgers[0].applies != len(c.blocks)+1 || len(ledgers[0].redo) != 0 {
		t.Fatalf("leader computed %d blocks and redid %d, want %d (genesis included) and none",
			ledgers[0].applies, len(ledgers[0].redo), len(c.blocks)+1)
	}
	followerStats := ledgers[1].Stats()
	for n, l := range ledgers[1:] {
		n++
		lives := 1
		if n == 7 {
			lives = 2
		}
		if l.applies != 0 {
			t.Errorf("node %d computed %d blocks; every one should have been a hit", n, l.applies)
		}
		if len(l.redo) != lives*(len(c.blocks)+1) || len(l.undo) != lives {
			t.Errorf("node %d: %d redos and %d undos, want %d and %d", n, len(l.redo), len(l.undo), lives*(len(c.blocks)+1), lives)
		}
		for i, m := range append(append([]uint64(nil), l.redo...), l.undo...) {
			if m != 0 {
				t.Errorf("node %d: crossing %d allocated %d objects: the hit replayed instead of adopting", n, i, m)
			}
		}
		stats := l.Stats()
		if n == 7 {
			// Counters are cumulative across Reset: two identical lives.
			stats = utxo.Stats{Gets: stats.Gets / 2, Puts: stats.Puts / 2, Deletes: stats.Deletes / 2}
		}
		if stats != followerStats {
			t.Errorf("node %d counted %+v, node 1 %+v", n, stats, followerStats)
		}
		sameLedger(t, "fleet node", contentsOf(l), want)
	}
	sameLedger(t, "leader", contentsOf(ledgers[0]), want)

	// The replaying node took the same hits by the other path: it allocated
	// on every one, holds the same contents, and counted the same operations.
	for i, m := range replayerLedger.redo {
		if m == 0 {
			t.Errorf("replayer redo %d allocated nothing: a set of unknown version adopted", i)
		}
	}
	sameLedger(t, "replayer", contentsOf(replayerLedger), want)
	if got := replayerLedger.Stats().Sub(replayerBase); got != followerStats {
		t.Errorf("adoption counted %+v, the replay path counts %+v", followerStats, got)
	}
	if followerStats.Gets == 0 || followerStats.Puts == 0 || followerStats.Deletes == 0 {
		t.Errorf("counters did not move: %+v", followerStats)
	}
	runtime.KeepAlive(pins)
}

// TestFleetFallsBackAndReconverges: over a cache of one entry per segment,
// a follower whose entry was evicted recomputes the block and stands on a
// ledger version of its own; the next hit is recorded against another
// version, so it replays and takes the delta's label; the hit after that
// adopts again. A follower that was written to between blocks never adopts
// again and still ends with the contents of its cache-off twin.
func TestFleetFallsBackAndReconverges(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := buildFleetChain(t)
	cache := validate.NewCache(1)
	evicted := map[int]bool{1: true, 5: true} // blocks the follower must recompute
	const rawAfter = 3                        // the written-to node's raw Put follows this block
	stray := types.OutPoint{TxID: crypto.Hash{0xEE}, Index: 3}

	leaderLedger, followerLedger := &probeLedger{Set: utxo.New()}, &probeLedger{Set: utxo.New()}
	leader, follower := c.state(t, leaderLedger, cache), c.state(t, followerLedger, cache)
	writtenBackend, twinBackend := utxo.NewMemBackend(), utxo.NewMemBackend()
	writtenLedger := &probeLedger{Set: utxo.NewWith(writtenBackend)}
	written := c.state(t, writtenLedger, cache)
	writtenTwin := c.state(t, utxo.NewWith(twinBackend), nil)
	twin := c.state(t, utxo.New(), nil)

	var pins []*utxo.Set
	for i, b := range c.blocks {
		c.deliver(t, leader, i)
		pins = append(pins, leaderLedger.Clone())
		if evicted[i] {
			// Another block's result lands in the same one-entry segment.
			h := b.Hash()
			h[31] ^= 0xFF
			cache.Store(validate.Key{Block: h}, &validate.ConnectResult{})
		}
		before := len(followerLedger.redo)
		c.deliver(t, follower, i)
		pins = append(pins, followerLedger.Clone())
		redos := followerLedger.redo[before:]
		switch {
		case evicted[i]:
			if len(redos) != 0 || followerLedger.Version() == leaderLedger.Version() {
				t.Fatalf("block %d: the follower did not recompute onto a version of its own", i)
			}
		case evicted[i-1]:
			if len(redos) != 1 || redos[0] == 0 {
				t.Errorf("block %d: a hit recorded against another version should replay (redo allocations: %v)", i, redos)
			}
			if followerLedger.Version() != leaderLedger.Version() {
				t.Errorf("block %d: the replay did not take the delta's label", i)
			}
		default:
			if len(redos) != 1 || redos[0] != 0 {
				t.Errorf("block %d: a hit on the shared version should adopt (redo allocations: %v)", i, redos)
			}
			if followerLedger.Version() != leaderLedger.Version() {
				t.Errorf("block %d: the follower is not on the leader's version", i)
			}
		}

		c.deliver(t, written, i)
		c.deliver(t, writtenTwin, i)
		c.deliver(t, twin, i)
		if i == rawAfter {
			writtenBackend.Put(stray, utxo.Entry{Value: 5})
			twinBackend.Put(stray, utxo.Entry{Value: 5})
		}
		if i >= rawAfter && writtenLedger.Version() != (utxo.Version{}) {
			t.Fatalf("block %d: the written-to ledger reports a known version", i)
		}
	}
	if followerLedger.applies != len(evicted) {
		t.Errorf("follower computed %d blocks, want the %d evicted ones", followerLedger.applies, len(evicted))
	}
	sameLedger(t, "follower", contentsOf(followerLedger), contentsOf(twin.UTXO()))
	sameLedger(t, "leader", contentsOf(leaderLedger), contentsOf(twin.UTXO()))

	// Redo 0 is genesis and redo i+1 block i: all that follow the raw write
	// replayed.
	for i, m := range writtenLedger.redo[rawAfter+2:] {
		if m == 0 {
			t.Errorf("written-to node: redo of block %d allocated nothing: it adopted after the raw write", rawAfter+1+i)
		}
	}
	sameLedger(t, "written-to node", contentsOf(writtenLedger), contentsOf(writtenTwin.UTXO()))
	if _, ok := contentsOf(writtenLedger)[stray]; !ok {
		t.Error("the raw entry is gone: the written-to node adopted a state that never held it")
	}
	runtime.KeepAlive(pins)
}

// raceProtocol is openProtocol with a rendezvous: the connect stage of the
// contested block does not start computing until `parties` states are inside
// it — that is, until each of them has looked the block up and missed.
type raceProtocol struct {
	openProtocol
	contested crypto.Hash
	arrived   *sync.WaitGroup
}

func (p raceProtocol) PoisonTargets(st *State, parent *Node, b types.Block) (map[crypto.Hash]crypto.Hash, error) {
	if b.Hash() == p.contested {
		p.arrived.Done()
		p.arrived.Wait()
	}
	return nil, nil
}

// TestLostConnectRaceConverges: two states that miss on one block in the same
// window both compute it, and the cache keeps one result. The loser must end
// on the kept delta and the kept ledger version — not on its own, which would
// leave it replaying every later block while the winner's followers adopt.
// Run under -race.
func TestLostConnectRaceConverges(t *testing.T) {
	c := buildFleetChain(t)
	cache := validate.NewCache(0)
	const contested = 2 // the 8-spend microblock
	var arrived sync.WaitGroup
	arrived.Add(2)
	proto := raceProtocol{contested: c.blocks[contested].Hash(), arrived: &arrived}

	states := make([]*State, 2)
	for i := range states {
		st, err := New(c.genesis, c.params, proto, &HeaviestChain{}, WithConnectCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < contested; j++ {
			c.deliver(t, st, j)
		}
		states[i] = st
	}
	var wg sync.WaitGroup
	for _, st := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := c.blocks[contested]
			if _, err := st.AddBlock(b, b.Time()); err != nil {
				t.Errorf("contested block: %v", err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Genesis and the blocks below the contested one missed once each.
	if got, want := cache.Stats().Misses, uint64(1+contested+2); got != want {
		t.Fatalf("cache saw %d misses, want %d: the two states did not both miss on the contested block", got, want)
	}

	a, b := states[0], states[1]
	if a.Tip().undo == nil || a.Tip().undo != b.Tip().undo {
		t.Fatal("the two states hold different deltas for the contested block")
	}
	va, vb := a.UTXO().(*utxo.Set).Version(), b.UTXO().(*utxo.Set).Version()
	if va != vb || va == (utxo.Version{}) {
		t.Fatal("the two states are on different ledger versions after the race")
	}
	sameLedger(t, "loser against winner", contentsOf(a.UTXO()), contentsOf(b.UTXO()))

	// Both carry on as one fleet.
	for i := contested + 1; i < len(c.blocks); i++ {
		c.deliver(t, a, i)
		c.deliver(t, b, i)
		if a.UTXO().(*utxo.Set).Version() != b.UTXO().(*utxo.Set).Version() {
			t.Fatalf("block %d: the states drifted apart again", i)
		}
	}
	twin := c.state(t, utxo.New(), nil)
	for i := range c.blocks {
		c.deliver(t, twin, i)
	}
	sameLedger(t, "after the race", contentsOf(a.UTXO()), contentsOf(twin.UTXO()))
}
