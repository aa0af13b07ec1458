package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/strategy"
	"bitcoinng/internal/types"
)

// handEnv is a node.Env on a hand-set clock: sends are logged, timers never
// fire.
type handEnv struct {
	now  int64
	id   int
	sent []node.Message
	rng  *rand.Rand
}

type idleTimer struct{}

func (idleTimer) Stop() bool          { return true }
func (idleTimer) Reset(time.Duration) {}

func (e *handEnv) Now() int64                             { return e.now }
func (e *handEnv) After(time.Duration, func()) node.Timer { return idleTimer{} }
func (e *handEnv) NodeID() int                            { return e.id }
func (e *handEnv) Peers() []int                           { return []int{9} }
func (e *handEnv) Rand() *rand.Rand                       { return e.rng }
func (e *handEnv) Send(_ int, m node.Message)             { e.sent = append(e.sent, m) }

// hookLog is what the hooks processBlock runs were shown during one call.
type hookLog struct {
	persisted, accepted, external []crypto.Hash
	connected, disconnected       []crypto.Hash // the Recorder's tip change
	tipChanges                    int
	onTip                         *chain.AddResult
	onTipAdded                    []crypto.Hash
}

type persistLog struct{ log *hookLog }

func (p persistLog) Append(b types.Block, _ int64) error {
	p.log.persisted = append(p.log.persisted, b.Hash())
	return nil
}

type recordLog struct {
	node.NopRecorder
	log *hookLog
}

func (r recordLog) BlockAccepted(_ int, _ int64, id node.BlockID) {
	r.log.accepted = append(r.log.accepted, id)
}

func (r recordLog) TipChanged(_ int, _ int64, _ node.BlockID, connected, disconnected []node.BlockID) {
	r.log.tipChanges++
	r.log.connected = append(r.log.connected, connected...)
	r.log.disconnected = append(r.log.disconnected, disconnected...)
}

// resultReader is an honest strategy that, for each external block, reads
// the result OnTipChange was handed in the same call: the block must sit at
// its place in the result's Added list.
type resultReader struct {
	strategy.Honest
	t   *testing.T
	log *hookLog
}

func (s resultReader) OnExternalBlock(_ strategy.View, n *chain.Node) []types.Block {
	k := len(s.log.external)
	s.log.external = append(s.log.external, n.Hash())
	if res := s.log.onTip; res != nil && (k >= len(res.Added) || res.Added[k] != n) {
		s.t.Errorf("strategy hook %d saw %s, but the live result's Added is %v", k, n.Hash().Short(), hashes(res.Added))
	}
	return nil
}

func hashes(ns []*chain.Node) []crypto.Hash {
	out := make([]crypto.Hash, len(ns))
	for i, n := range ns {
		out[i] = n.Hash()
	}
	return out
}

func blockHashes(bs ...types.Block) []crypto.Hash {
	out := make([]crypto.Hash, len(bs))
	for i, b := range bs {
		out[i] = b.Hash()
	}
	return out
}

// TestAddResultLivesThroughEveryHook feeds one node a block that unlocks
// three stashed orphans: a heavier key block that reorganizes the chain and
// two sibling microblocks that prove their leader equivocated. Every hook
// processBlock and core's ProcessBlock run — Persist, the Recorder, the
// announce, OnTipChange, fraud detection and the strategy loop — must see
// the call's whole result, and the returned result must still read the same
// afterwards: the chain reuses one result per State, valid until the next
// AddBlock, and no hook may start one.
func TestAddResultLivesThroughEveryHook(t *testing.T) {
	params := ngParams()
	keys := makeKeys(t, 3, 41)
	genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
	mk := func(id int) (*Node, *handEnv) {
		env := &handEnv{id: id, rng: rand.New(rand.NewSource(int64(id)))}
		n, err := New(env, node.Config{Params: params, Key: keys[id], Genesis: genesis, SimulatedMining: true})
		if err != nil {
			t.Fatal(err)
		}
		return n, env
	}
	// keyOn assembles producer p's key block on parent at time at and adds
	// it to p's own tree.
	keyOn := func(p *Node, env *handEnv, parent *chain.Node, at time.Duration) (*types.KeyBlock, *chain.Node) {
		env.now = int64(at)
		kb := p.AssembleKeyBlockOn(parent)
		res, err := p.State.AddBlock(kb, env.now)
		if err != nil {
			t.Fatal(err)
		}
		return kb, res.Node
	}
	microOn := func(parent types.Block, key *crypto.PrivateKey, at time.Duration) *types.MicroBlock {
		mb := &types.MicroBlock{Header: types.MicroBlockHeader{
			Prev: parent.Hash(), TxRoot: crypto.MerkleRoot(nil), TimeNanos: int64(at),
		}}
		mb.Header.Sign(key)
		return mb
	}
	a, aEnv := mk(0)
	b, bEnv := mk(1)
	victim, vEnv := mk(2)
	vEnv.now = int64(time.Minute)

	k1a, _ := keyOn(a, aEnv, a.State.Tip(), time.Second)
	ma1 := microOn(k1a, keys[0], 2*time.Second)
	k1b, k1bNode := keyOn(b, bEnv, b.State.Tip(), 1500*time.Millisecond)
	k2b, _ := keyOn(b, bEnv, k1bNode, 3*time.Second)
	mb1 := microOn(k1b, keys[1], 2*time.Second)
	mb1x := microOn(k1b, keys[1], 2*time.Second+time.Millisecond)

	for _, blk := range []types.Block{k1a, ma1} {
		if res := victim.ProcessBlock(blk, 0); res.Status != chain.StatusMainChain {
			t.Fatalf("%s: %v", blk.Hash().Short(), res.Status)
		}
	}
	for _, blk := range []types.Block{k2b, mb1, mb1x} {
		if res := victim.ProcessBlock(blk, 1); res.Status != chain.StatusOrphan {
			t.Fatalf("%s: %v, want an orphan", blk.Hash().Short(), res.Status)
		}
	}

	log := &hookLog{}
	victim.Persist = persistLog{log}
	victim.Recorder = recordLog{log: log}
	onTip := victim.OnTipChange
	victim.OnTipChange = func(res *chain.AddResult) {
		log.onTip, log.onTipAdded = res, hashes(res.Added)
		onTip(res)
	}
	victim.SetStrategy(resultReader{t: t, log: log})
	vEnv.sent = nil

	res := victim.ProcessBlock(k1b, 1)

	added := blockHashes(k1b, k2b, mb1, mb1x)
	connected, disconnected := blockHashes(k1b, k2b), blockHashes(k1a, ma1)
	if res.Status != chain.StatusMainChain || res.Node.Hash() != k1b.Hash() {
		t.Fatalf("result %v on %v, want the main chain on k1b", res.Status, res.Node)
	}
	for _, c := range []struct {
		what      string
		got, want []crypto.Hash
	}{
		{"the result's Added", hashes(res.Added), added},
		{"the result's Connected", hashes(res.Connected), connected},
		{"the result's Disconnected", hashes(res.Disconnected), disconnected},
		{"Persist", log.persisted, added},
		{"Recorder.BlockAccepted", log.accepted, added},
		{"Recorder.TipChanged connected", log.connected, connected},
		{"Recorder.TipChanged disconnected", log.disconnected, disconnected},
		{"OnTipChange's result", log.onTipAdded, added},
		{"the strategy loop", log.external, added},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s: %v, want %v", c.what, c.got, c.want)
		}
	}
	var announced []crypto.Hash
	for _, m := range vEnv.sent {
		if inv, ok := m.(*node.InvMsg); ok {
			announced = append(announced, inv.Items[0].Hash)
		}
	}
	if !slices.Equal(announced, added) {
		t.Errorf("announced %v, want %v", announced, added)
	}
	if log.tipChanges != 1 || log.onTip != res {
		t.Errorf("%d tip changes recorded; OnTipChange got %p, ProcessBlock returned %p", log.tipChanges, log.onTip, res)
	}
	if f, ok := victim.fraud[k1b.Hash()]; !ok || f.siblingA.Hash() != mb1x.Hash() || f.siblingB.Hash() != mb1.Hash() {
		t.Errorf("fraud record %+v, want k1b's leader caught by mb1x and mb1", f)
	}
}
