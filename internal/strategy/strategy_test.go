package strategy

import (
	"errors"
	"testing"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

type fakeView struct {
	tip     *chain.Node
	leading bool
}

func (v fakeView) NodeID() int      { return 0 }
func (v fakeView) Now() int64       { return 0 }
func (v fakeView) Tip() *chain.Node { return v.tip }
func (v fakeView) Leading() bool    { return v.leading }

// keyNode builds a synthetic key-block tree node: strategies only read
// Parent, KeyAncestor, KeyHeight, Weight, and the block kind.
func keyNode(parent *chain.Node, keyHeight uint64, weight int64) *chain.Node {
	n := chain.DetachedNode(&types.KeyBlock{
		Header:       types.KeyBlockHeader{PowHeader: types.PowHeader{TimeNanos: int64(keyHeight)*1e9 + weight}},
		SimulatedPoW: true,
	})
	n.Parent = parent
	n.KeyHeight = keyHeight
	n.Weight = crypto.Work{uint64(weight)}
	n.KeyAncestor = n
	return n
}

func microNode(parent *chain.Node) *chain.Node {
	n := chain.DetachedNode(&types.MicroBlock{Header: types.MicroBlockHeader{TimeNanos: int64(parent.KeyHeight) * 7}})
	n.Parent = parent
	n.KeyHeight = parent.KeyHeight
	n.Weight = parent.Weight
	n.KeyAncestor = parent.KeyAncestor
	return n
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{HonestName, SelfishName, GreedyMineName, FeeThiefName} {
		s, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
	}
	if s, err := New(""); err != nil || s.Name() != HonestName {
		t.Errorf("empty name: %v, %v — want the honest default", s, err)
	}
	if _, err := New("nope"); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown name error = %v, want ErrUnknown", err)
	}
	if err := Register(HonestName, func() Strategy { return Honest{} }); err == nil {
		t.Error("duplicate registration accepted")
	}
	// Selfish instances must not share state.
	a, _ := New(SelfishName)
	b, _ := New(SelfishName)
	if a.(*Selfish) == b.(*Selfish) {
		t.Error("New returned a shared selfish instance")
	}
}

func TestForNodes(t *testing.T) {
	ss, err := ForNodes(3, map[int]string{2: GreedyMineName})
	if err != nil {
		t.Fatal(err)
	}
	if ss[0] != nil || ss[1] != nil || ss[2] == nil || ss[2].Name() != GreedyMineName {
		t.Errorf("assignment mismatch: %v", ss)
	}
	if _, err := ForNodes(3, map[int]string{3: HonestName}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := ForNodes(3, map[int]string{0: "nope"}); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown strategy error = %v", err)
	}
}

func TestHonestSplitFee(t *testing.T) {
	params := types.DefaultParams() // 40% to the serializing leader
	mine, prev := Honest{}.SplitFee(params, 1000)
	if mine != 600 || prev != 400 {
		t.Errorf("honest split = (%d, %d), want (600, 400)", mine, prev)
	}
	if mine+prev != 1000 {
		t.Error("split creates or destroys value")
	}
}

func TestFeeThiefKeepsEverything(t *testing.T) {
	mine, prev := FeeThief{}.SplitFee(types.DefaultParams(), 1000)
	if mine != 1000 || prev != 0 {
		t.Errorf("feethief split = (%d, %d), want (1000, 0)", mine, prev)
	}
}

func TestGreedyMineParent(t *testing.T) {
	k1 := keyNode(nil, 1, 1)
	m1 := microNode(k1)
	m2 := microNode(m1)

	// Not leading: prune the epoch's microblocks.
	if got := (GreedyMine{}).KeyBlockParent(fakeView{tip: m2}); got != k1 {
		t.Errorf("greedymine parent = %v, want the epoch key block", got)
	}
	// Leading: own microblocks are kept (pruning would forfeit the
	// serializer share).
	if got := (GreedyMine{}).KeyBlockParent(fakeView{tip: m2, leading: true}); got != m2 {
		t.Errorf("leading greedymine parent = %v, want the tip", got)
	}
	// A bare key-block tip degenerates to honest either way.
	if got := (GreedyMine{}).KeyBlockParent(fakeView{tip: k1}); got != k1 {
		t.Errorf("key-tip greedymine parent = %v, want the tip", got)
	}
}

func TestSelfishWithholdAndRace(t *testing.T) {
	s := NewSelfish()
	pub := keyNode(nil, 0, 0)
	v := fakeView{tip: pub}

	// Found a key block: withhold, mine on it.
	a1 := keyNode(pub, 1, 1)
	if act := s.OnKeyBlockMined(v, a1.Block().(*types.KeyBlock)); act != Withhold {
		t.Fatalf("first find action = %v, want withhold", act)
	}
	s.OnOwnBlockAdded(v, a1, Withhold)
	if got := s.KeyBlockParent(fakeView{tip: pub}); got != a1 {
		t.Fatalf("mining parent = %v, want the private tip", got)
	}

	// Private microblocks stay private and extend the segment.
	m1 := microNode(a1)
	if act := s.OnMicroBlockMined(v, m1.Block().(*types.MicroBlock)); act != Withhold {
		t.Fatalf("private microblock action = %v, want withhold", act)
	}
	s.OnOwnBlockAdded(v, m1, Withhold)

	// Honest microblocks never move the race standings.
	if rel := s.OnExternalBlock(v, microNode(pub)); rel != nil {
		t.Fatalf("external microblock released %d blocks", len(rel))
	}

	// Honest matches our weight: release everything, race.
	h1 := keyNode(pub, 1, 1)
	rel := s.OnExternalBlock(v, h1)
	if len(rel) != 2 || rel[0] != a1.Block() || rel[1] != m1.Block() {
		t.Fatalf("race release = %v, want [a1, m1]", rel)
	}
	if !s.racing {
		t.Fatal("not racing after an equal-weight release")
	}
	// Still mining on our branch mid-race.
	if got := s.KeyBlockParent(fakeView{tip: h1}); got != m1 {
		t.Fatalf("race mining parent = %v, want our released tip", got)
	}

	// Winning the race by mining: publish instantly, state resets.
	a2 := keyNode(m1, 2, 2)
	if act := s.OnKeyBlockMined(v, a2.Block().(*types.KeyBlock)); act != Publish {
		t.Fatalf("race-winning find action = %v, want publish", act)
	}
	if s.racing || s.privateTip != nil || len(s.private) != 0 {
		t.Fatal("state not reset after winning the race")
	}
}

func TestSelfishLeadTwoWinsOutright(t *testing.T) {
	s := NewSelfish()
	pub := keyNode(nil, 0, 0)
	v := fakeView{tip: pub}

	a1 := keyNode(pub, 1, 1)
	a2 := keyNode(a1, 2, 2)
	for _, n := range []*chain.Node{a1, a2} {
		s.OnKeyBlockMined(v, n.Block().(*types.KeyBlock))
		s.OnOwnBlockAdded(v, n, Withhold)
	}
	// Honest reaches weight 1: we are one ahead after releasing all.
	rel := s.OnExternalBlock(v, keyNode(pub, 1, 1))
	if len(rel) != 2 || rel[0] != a1.Block() || rel[1] != a2.Block() {
		t.Fatalf("lead-2 release = %v, want the full private chain", rel)
	}
	if s.privateTip != nil || s.racing {
		t.Fatal("state not reset after an outright win")
	}
}

func TestSelfishLongLeadReleasesIncrementally(t *testing.T) {
	s := NewSelfish()
	pub := keyNode(nil, 0, 0)
	v := fakeView{tip: pub}

	a1 := keyNode(pub, 1, 1)
	m1 := microNode(a1)
	a2 := keyNode(m1, 2, 2)
	a3 := keyNode(a2, 3, 3)
	for _, n := range []*chain.Node{a1, m1, a2, a3} {
		s.OnOwnBlockAdded(v, n, Withhold)
	}

	// Honest reaches key height 1 (lead 2): release just the first private
	// epoch, keep the rest secret.
	rel := s.OnExternalBlock(v, keyNode(pub, 1, 1))
	if len(rel) != 2 || rel[0] != a1.Block() || rel[1] != m1.Block() {
		t.Fatalf("incremental release = %v, want [a1, m1]", rel)
	}
	if s.privateTip != a3 || len(s.private) != 2 {
		t.Fatalf("private segment after partial release: tip %v, %d blocks", s.privateTip, len(s.private))
	}
	// Honest reaches weight 2 (lead 1): release the rest and win outright.
	rel = s.OnExternalBlock(v, keyNode(pub, 2, 2))
	if len(rel) != 2 || rel[0] != a2.Block() || rel[1] != a3.Block() {
		t.Fatalf("final release = %v, want [a2, a3]", rel)
	}
	if s.privateTip != nil {
		t.Fatal("state not reset after the final release")
	}
}

func TestSelfishAbandonsWhenOvertaken(t *testing.T) {
	s := NewSelfish()
	pub := keyNode(nil, 0, 0)
	v := fakeView{tip: pub}

	a1 := keyNode(pub, 1, 1)
	s.OnOwnBlockAdded(v, a1, Withhold)
	// Honest jumps straight to weight 2 (we missed their first block):
	// abandon, release nothing.
	if rel := s.OnExternalBlock(v, keyNode(keyNode(pub, 1, 1), 2, 2)); rel != nil {
		t.Fatalf("overtaken release = %v, want none", rel)
	}
	if s.privateTip != nil || len(s.private) != 0 {
		t.Fatal("private chain not abandoned after being overtaken")
	}
	// Back to honest behaviour.
	if act := s.OnMicroBlockMined(v, &types.MicroBlock{}); act != Publish {
		t.Fatalf("post-abandon microblock action = %v, want publish", act)
	}
}

// TestSelfishUnequalWeightsLead: under active retargeting per-block weights
// are unequal, so a heavier private chain can sit at a lower key height.
// The signed lead must route this through the release-everything branch and
// reset the machine — the unsigned subtraction used to underflow, release
// the chain, and keep withholding on an already-public tip.
func TestSelfishUnequalWeightsLead(t *testing.T) {
	s := NewSelfish()
	pub := keyNode(nil, 0, 0)
	v := fakeView{tip: pub}

	heavy := keyNode(pub, 1, 5) // one heavy private key block
	s.OnOwnBlockAdded(v, heavy, Withhold)

	// Honest advances to key height 3 but only weight 4: we are heavier at
	// a lower height.
	h3 := keyNode(keyNode(keyNode(pub, 1, 2), 2, 3), 3, 4)
	rel := s.OnExternalBlock(v, h3)
	if len(rel) != 1 || rel[0] != heavy.Block() {
		t.Fatalf("release = %v, want the full private chain", rel)
	}
	if s.privateTip != nil || len(s.private) != 0 || s.racing {
		t.Fatal("state machine not reset after releasing at a degenerate lead")
	}
}
