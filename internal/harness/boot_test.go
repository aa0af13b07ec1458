package harness

import (
	"fmt"
	"testing"
	"time"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/mining"
	"bitcoinng/internal/protocol"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/store"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
	"bitcoinng/internal/validate"
)

// replayFixture is a file-backed chain index holding exactly `blocks` blocks
// of a Bitcoin-NG chain whose microblocks carry signed spends, recorded by a
// small fleet on the cache returned with it — the first life a Boot replay
// is the second life of.
type replayFixture struct {
	env    *simnet.NodeEnv
	spec   protocol.Spec
	index  store.ChainIndex
	blocks int
	txs    uint64
}

func newReplayFixture(tb testing.TB, blocks, spends int) *replayFixture {
	tb.Helper()
	const nodes, seed = 3, 41
	params := types.DefaultParams()
	params.RetargetWindow = 0
	params.MaxBlockSize = 20_000
	params.TargetBlockInterval = 30 * time.Second
	params.MicroblockInterval = 2 * time.Second
	keys, err := Keys(seed, 0x10000, nodes+1)
	if err != nil {
		tb.Fatal(err)
	}
	owner := keys[nodes]
	payouts := make([]types.TxOutput, spends)
	for i := range payouts {
		payouts[i] = types.TxOutput{Value: 1000, To: owner.Public().Addr()}
	}
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget, Payouts: payouts})
	dir := tb.TempDir()
	f, err := New(Spec{
		Protocol:    protocol.BitcoinNG,
		Params:      params,
		Genesis:     genesis,
		Seed:        seed,
		Keys:        keys[:nodes],
		Net:         simnet.DefaultConfig(nodes, seed),
		StoreURL:    "file:" + dir,
		StoreName:   func(i int) string { return fmt.Sprint("n", i) },
		MinerStream: 0x20000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	shares := mining.ExponentialShares(nodes, mining.DefaultExponent)
	for i := range f.Nodes() {
		if err := f.SetMiningRate(i, shares[i]/params.TargetBlockInterval.Seconds()); err != nil {
			tb.Fatal(err)
		}
	}
	// Every node holds every spend from the start; whoever leads packs them.
	for i := 0; i < spends; i++ {
		tx := &types.Transaction{
			Kind:    types.TxRegular,
			Inputs:  []types.TxInput{{Prev: types.OutPoint{TxID: genesis.Txs[0].ID(), Index: uint32(i)}}},
			Outputs: []types.TxOutput{{Value: 900, To: crypto.Address{byte(i), byte(i >> 8)}}},
		}
		tx.SignInput(0, owner)
		for _, nd := range f.Nodes() {
			if err := nd.Base().Pool.Add(tx); err != nil {
				tb.Fatal(err)
			}
		}
	}
	src := f.Nodes()[0]
	for src.Index.Len() < blocks {
		if f.Now() > time.Hour {
			tb.Fatalf("only %d blocks after a virtual hour", src.Index.Len())
		}
		f.Run(10 * time.Second)
	}
	// Cut the index to size in a file of its own, so each Boot decodes fresh
	// objects from disk the way a restart does.
	// The env is a stand-in that never runs: Boot needs one to build on.
	loop := sim.NewLoop(0)
	fx := &replayFixture{
		env:    simnet.NewNodeEnv(loop, simnet.New(loop, simnet.DefaultConfig(2, seed)), 0, seed),
		blocks: blocks,
		spec: protocol.Spec{
			Protocol: protocol.BitcoinNG, Params: params, Key: keys[0], Genesis: genesis,
			SimulatedMining: true, ConnectCache: f.cache,
		},
	}
	factory, err := store.NewFactory("file:" + tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	index, err := factory.NewChainIndex("replay")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { index.Close() })
	if err := src.Index.Replay(func(b types.Block, at int64) error {
		if index.Len() == blocks {
			return nil
		}
		fx.txs += uint64(len(b.Transactions()))
		return index.Append(b, at)
	}); err != nil {
		tb.Fatal(err)
	}
	fx.index = index
	return fx
}

// boot replays the fixture's index into a fresh memory ledger on cache.
func (fx *replayFixture) boot(tb testing.TB, cache *validate.Cache) (*chain.State, *utxo.Set) {
	tb.Helper()
	spec := fx.spec
	spec.ConnectCache = cache
	ledger := utxo.New()
	client, err := Boot(fx.env, spec, ledger, fx.index, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return client.Base().State, ledger
}

// TestBootReplayColdEqualsAdopted is soundness test (e): the same index
// replayed on the first life's cache (everything vouched for, nothing
// verified) and on an empty one (nothing vouched for, every signature verified
// on the pool, once: the connect stage then misses on every block and stores
// it) rebuilds the same node — tip, ledger contents, arrival times.
func TestBootReplayColdEqualsAdopted(t *testing.T) {
	fx := newReplayFixture(t, 24, 300)
	if fx.txs < 200 {
		t.Fatalf("fixture carries only %d transactions; the spends never got packed", fx.txs)
	}
	warm := fx.spec.ConnectCache
	before := warm.Stats()
	adopted, adoptedLedger := fx.boot(t, warm)
	after := warm.Stats()
	if got := after.Vouched - before.Vouched; got != fx.txs {
		t.Errorf("adopted replay vouched for %d transactions, want all %d", got, fx.txs)
	}
	if after.Misses != before.Misses || after.Hits-before.Hits != uint64(fx.blocks)+1 {
		t.Errorf("adopted replay: %d hits, %d misses; want %d connects, all hits", after.Hits-before.Hits, after.Misses-before.Misses, fx.blocks+1)
	}

	empty := validate.NewCache(0)
	cold, coldLedger := fx.boot(t, empty)
	if s := empty.Stats(); s.Vouched != 0 || s.Hits != 0 || s.Misses != uint64(fx.blocks)+1 || s.Entries != fx.blocks+1 {
		t.Errorf("cold replay: %+v; want nothing vouched, %d misses, all stored", s, fx.blocks+1)
	}

	if cold.Tip().Hash() != adopted.Tip().Hash() || cold.Store().Len() != fx.blocks+1 || adopted.Store().Len() != fx.blocks+1 {
		t.Fatalf("tips %s / %s, trees %d / %d blocks", cold.Tip().Hash().Short(), adopted.Tip().Hash().Short(), cold.Store().Len(), adopted.Store().Len())
	}
	if err := fx.index.Replay(func(b types.Block, want int64) error {
		h := b.Hash()
		a, _ := adopted.Store().Get(h)
		c, _ := cold.Store().Get(h)
		if a == nil || c == nil || adopted.Store().ReceivedAt(a) != want || cold.Store().ReceivedAt(c) != want {
			t.Fatalf("block %s: arrival times differ from the recorded %d", h.Short(), want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := map[types.OutPoint]utxo.Entry{}
	adoptedLedger.Range(func(op types.OutPoint, e utxo.Entry) bool { want[op] = e; return true })
	n := 0
	coldLedger.Range(func(op types.OutPoint, e utxo.Entry) bool {
		n++
		if want[op] != e {
			t.Fatalf("ledger entry %v: cold %+v, adopted %+v", op, e, want[op])
		}
		return true
	})
	if n != len(want) {
		t.Fatalf("ledgers hold %d and %d entries", n, len(want))
	}
}

// BenchmarkBootReplay times harness.Boot over a 96-block file index, per
// block: adopted is a restart inside the process that connected the chain
// (the connect cache vouches for every block), cold a restart in a new
// process (every signature verified, on the pool). The callback — decode
// aside — is where a replay's time goes; store.index_replay_us_per_block in
// benchmark/ times the index alone.
func BenchmarkBootReplay(b *testing.B) {
	fx := newReplayFixture(b, 96, 2400)
	for _, mode := range []string{"adopted", "cold"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cache := fx.spec.ConnectCache
				if mode == "cold" {
					cache = validate.NewCache(0)
				}
				fx.boot(b, cache)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*fx.blocks), "µs/block")
			b.ReportMetric(float64(fx.txs)/float64(fx.blocks), "tx/block")
		})
	}
}
