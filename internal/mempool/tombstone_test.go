package mempool

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// TestTombstoneRefusesForTwoGenerations: a confirmed transaction, pooled or
// not, is refused as a duplicate in the generation that confirmed it and in
// the next one, and admitted again once its tombstone expires.
func TestTombstoneRefusesForTwoGenerations(t *testing.T) {
	p := New()
	key := testKey(t, 20)
	pooled, unseen := tx(t, key, 1, 0), tx(t, key, 2, 0)
	if err := p.Add(pooled); err != nil {
		t.Fatal(err)
	}
	p.RemoveConfirmed([]*types.Transaction{pooled, unseen})
	for gen := 1; gen <= tombGenerations; gen++ {
		for _, x := range []*types.Transaction{pooled, unseen} {
			if err := p.Add(x); err != ErrDuplicate {
				t.Fatalf("generation %d: re-add returned %v, want ErrDuplicate", gen, err)
			}
			if !p.Known(x.ID()) || p.Get(x.ID()) != nil {
				t.Fatalf("generation %d: Known %v pooled %v, want a tombstone", gen, p.Known(x.ID()), p.Get(x.ID()) != nil)
			}
		}
		if gen < tombGenerations {
			p.RemoveConfirmed(nil)
		}
	}
	p.RemoveConfirmed(nil)
	for _, x := range []*types.Transaction{pooled, unseen} {
		if p.Known(x.ID()) {
			t.Fatal("tombstone outlived its generations")
		}
		if err := p.Add(x); err != nil {
			t.Fatalf("re-add after expiry: %v", err)
		}
	}
	if n := len(p.txs) + len(p.txSpill); n != p.live {
		t.Fatalf("index holds %d slots for %d pooled transactions", n, p.live)
	}
}

// TestMultiBlockTipChangeKeepsTombstones: a tip change that connects k = 3
// blocks is one generation, so the first block's tombstones live as long as
// the last block's. Three separate calls would have been three generations
// and expired them a generation early, which is why the node hands the pool
// one call per tip change.
func TestMultiBlockTipChangeKeepsTombstones(t *testing.T) {
	key := testKey(t, 21)
	var blocks [3][]*types.Transaction
	var all []*types.Transaction
	for i := range blocks {
		for j := 0; j < 4; j++ {
			x := tx(t, key, uint32(10*i+j), 0)
			blocks[i] = append(blocks[i], x)
			all = append(all, x)
		}
	}
	one, split := New(), New()
	one.RemoveConfirmed(all)
	for _, b := range blocks {
		split.RemoveConfirmed(b)
	}
	one.RemoveConfirmed(nil)
	split.RemoveConfirmed(nil)
	for _, x := range all {
		if err := one.Add(x); err != ErrDuplicate {
			t.Fatalf("one call per tip change: re-add returned %v, want ErrDuplicate", err)
		}
	}
	for _, x := range blocks[0] {
		if split.Known(x.ID()) {
			t.Fatal("a call per block kept the first block's tombstones; the test no longer shows why one call is needed")
		}
	}
}

// TestReinsertRevivesTombstoned: a reorg that disconnects a confirmed
// transaction's block puts it back in the pool, and purging the generation
// its tombstone was laid in leaves the revived entry alone.
func TestReinsertRevivesTombstoned(t *testing.T) {
	p := New()
	key := testKey(t, 22)
	a := tx(t, key, 1, 0)
	if err := p.Add(a); err != nil {
		t.Fatal(err)
	}
	p.RemoveConfirmed([]*types.Transaction{a})
	p.Reinsert([]*types.Transaction{a})
	if p.Get(a.ID()) == nil || p.Len() != 1 {
		t.Fatalf("Reinsert did not revive the tombstoned transaction (len %d)", p.Len())
	}
	for i := 0; i <= tombGenerations; i++ {
		p.RemoveConfirmed(nil)
	}
	if got := p.Select(1 << 20); len(got) != 1 || got[0] != a {
		t.Fatalf("revived transaction lost when its old tombstone's generation was purged: %v", got)
	}
	// Confirmed again (the reorg's winning branch carries it): a tombstone again.
	p.RemoveConfirmed([]*types.Transaction{a})
	if p.Get(a.ID()) != nil || !p.Known(a.ID()) || p.Len() != 0 {
		t.Fatal("re-confirmed transaction did not become a tombstone")
	}
}

// TestTombstonesAreInvisible: only Add's duplicate probe (and Known) sees a
// tombstone. Len, Stats, Select, eviction and the pooled-parent fee lookup
// behave as if the confirmed transaction had been deleted.
func TestTombstonesAreInvisible(t *testing.T) {
	p := New()
	p.SetLimits(Limits{MaxTxs: 2})
	key := testKey(t, 23)
	values := map[types.OutPoint]types.Amount{}
	p.SetFeeResolver(func(op types.OutPoint) (types.Amount, bool) {
		v, ok := values[op]
		return v, ok
	})
	parent := tx(t, key, 1, 0)
	parent.Outputs[0].Value = 5_000
	parent.SignInput(0, key)
	values[parent.Inputs[0].Prev] = 6_000
	child := &types.Transaction{
		Kind:    types.TxRegular,
		Inputs:  []types.TxInput{{Prev: types.OutPoint{TxID: parent.ID()}}},
		Outputs: []types.TxOutput{{Value: 1_000, To: crypto.Address{2}}},
	}
	child.SignInput(0, key)
	if err := p.Add(parent); err != nil {
		t.Fatal(err)
	}
	var filler []*types.Transaction
	for i := uint32(2); i < 7; i++ {
		filler = append(filler, tx(t, key, i, 0))
	}
	p.RemoveConfirmed(append([]*types.Transaction{parent}, filler...))

	if p.Len() != 0 {
		t.Fatalf("Len = %d with only tombstones", p.Len())
	}
	if st := p.Stats(); st.Txs != 0 || st.Bytes != 0 {
		t.Fatalf("Stats = %+v with only tombstones", st)
	}
	if got := p.Select(1 << 20); len(got) != 0 {
		t.Fatalf("Select returned %d tombstoned transactions", len(got))
	}
	// The child's parent is confirmed, not pooled: its fee resolves through
	// the resolver alone, which here does not know the parent's output.
	if err := p.Add(child); err != nil {
		t.Fatal(err)
	}
	if r := p.lookup(child.ID()).rate; r != 0 {
		t.Fatalf("child rate %d: the fee lookup read a tombstoned parent", r)
	}
	// Six tombstones do not fill a two-transaction pool, and eviction never
	// picks one.
	other := tx(t, key, 9, 0)
	if err := p.Add(other); err != nil {
		t.Fatalf("second admission into a pool of tombstones: %v", err)
	}
	if st := p.Stats(); st.Txs != 2 || st.Evictions != 0 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want 2 pooled and nothing shed", st)
	}
}

// refEntry is one transaction pooled by refPool.
type refEntry struct {
	tx   *types.Transaction
	size int
	rate int64
}

// refPool is the plain reference the pool is checked against: pooled
// transactions in one slice in admission order, tombstones in a map, no
// buckets, no compaction and no recycling.
type refPool struct {
	limits    Limits
	values    map[types.OutPoint]types.Amount // nil: no fee resolver
	live      []refEntry
	tombs     map[crypto.Hash]int // id -> generation laid
	gen       int
	bytes     int
	evictions uint64
	rejected  uint64
}

func (m *refPool) find(id crypto.Hash) int {
	for i, e := range m.live {
		if e.tx.ID() == id {
			return i
		}
	}
	return -1
}

func (m *refPool) claimant(op types.OutPoint) int {
	for i, e := range m.live {
		for _, in := range e.tx.Inputs {
			if in.Prev == op {
				return i
			}
		}
	}
	return -1
}

func (m *refPool) drop(i int) {
	m.bytes -= m.live[i].size
	m.live = append(m.live[:i], m.live[i+1:]...)
}

func (m *refPool) rate(tx *types.Transaction, size int) int64 {
	if m.values == nil {
		return 0
	}
	var in types.Amount
	for _, input := range tx.Inputs {
		v, ok := m.values[input.Prev]
		if !ok {
			if j := m.find(input.Prev.TxID); j >= 0 && int(input.Prev.Index) < len(m.live[j].tx.Outputs) {
				v, ok = m.live[j].tx.Outputs[input.Prev.Index].Value, true
			}
		}
		if !ok {
			return 0
		}
		in += v
	}
	fee := in - tx.OutputSum()
	if fee <= 0 {
		return 0
	}
	return int64(fee) * 1000 / int64(size)
}

func (m *refPool) add(tx *types.Transaction) error {
	id := tx.ID()
	if _, ok := m.tombs[id]; ok || m.find(id) >= 0 {
		return ErrDuplicate
	}
	for _, in := range tx.Inputs {
		if m.claimant(in.Prev) >= 0 {
			return ErrConflict
		}
	}
	size := tx.WireSize()
	rate := m.rate(tx, size)
	for (m.limits.MaxTxs > 0 && len(m.live)+1 > m.limits.MaxTxs) ||
		(m.limits.MaxBytes > 0 && m.bytes+size > m.limits.MaxBytes) {
		victim := -1 // the newest entry of the lowest rate
		for i, e := range m.live {
			if victim < 0 || e.rate <= m.live[victim].rate {
				victim = i
			}
		}
		if victim < 0 || m.live[victim].rate >= rate {
			m.rejected++
			return ErrPoolFull
		}
		m.drop(victim)
		m.evictions++
	}
	m.live = append(m.live, refEntry{tx, size, rate})
	m.bytes += size
	return nil
}

func (m *refPool) removeConfirmed(txs []*types.Transaction) {
	m.gen++
	for id, g := range m.tombs {
		if g+tombGenerations <= m.gen {
			delete(m.tombs, id)
		}
	}
	for _, tx := range txs {
		if i := m.find(tx.ID()); i >= 0 {
			m.drop(i)
		}
		m.tombs[tx.ID()] = m.gen
		for _, in := range tx.Inputs {
			if i := m.claimant(in.Prev); i >= 0 {
				m.drop(i)
			}
		}
	}
}

func (m *refPool) reinsert(txs []*types.Transaction) {
	for _, tx := range txs {
		delete(m.tombs, tx.ID())
		_ = m.add(tx)
	}
}

func (m *refPool) selectTxs(maxBytes int) []*types.Transaction {
	order := append([]refEntry(nil), m.live...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].rate > order[j].rate })
	var out []*types.Transaction
	for _, e := range order {
		if e.size <= maxBytes {
			out = append(out, e.tx)
			maxBytes -= e.size
		}
	}
	return out
}

// modelUniverse builds n distinct unsigned regular transactions (the pool
// checks no signatures): some spend a small set of funded outpoints, so they
// conflict, and some spend an earlier member's output, so fees resolve
// through pooled parents. A fifth spend a second, different outpoint, so one
// entry can hold two claims, and under a degenerate key two colliding ones.
func modelUniverse(r *rand.Rand, n int) ([]*types.Transaction, map[types.OutPoint]types.Amount) {
	funding := crypto.HashBytes([]byte("model-funding"))
	values := map[types.OutPoint]types.Amount{}
	for i := 0; i < n/2; i++ {
		if r.Intn(4) != 0 { // a quarter of the funded outpoints do not resolve
			values[types.OutPoint{TxID: funding, Index: uint32(i)}] = types.Amount(1_000 + r.Intn(9_000))
		}
	}
	txs := make([]*types.Transaction, n)
	spend := func(i int) types.OutPoint {
		if i > 0 && r.Intn(3) == 0 {
			return types.OutPoint{TxID: txs[r.Intn(i)].ID(), Index: uint32(r.Intn(2))}
		}
		return types.OutPoint{TxID: funding, Index: uint32(r.Intn(n / 2))}
	}
	for i := range txs {
		inputs := []types.TxInput{{Prev: spend(i)}}
		if r.Intn(5) == 0 {
			if prev := spend(i); prev != inputs[0].Prev {
				inputs = append(inputs, types.TxInput{Prev: prev})
			}
		}
		txs[i] = &types.Transaction{
			Kind:    types.TxRegular,
			Inputs:  inputs,
			Outputs: []types.TxOutput{{Value: types.Amount(r.Intn(4_000)), To: crypto.Address{byte(i), byte(i >> 8)}}},
			Padding: make([]byte, r.Intn(400)),
		}
	}
	return txs, values
}

// TestPoolMatchesReferenceModel drives random Add, RemoveConfirmed,
// Reinsert, Select and bounded eviction against refPool: every refusal,
// selection, count and probe must match.
func TestPoolMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { matchModel(t, seed) })
	}
}

// TestPoolMatchesReferenceModelOnCollidingKeys runs the model check with
// degenerate index keys: a constant, so every ID and every outpoint collides
// and all but one live in the spill maps, and a 1-bit key, so about half do
// and slots change hands as their holders leave.
func TestPoolMatchesReferenceModelOnCollidingKeys(t *testing.T) {
	for _, keys := range []struct {
		name  string
		tx    func(crypto.Hash) uint64
		spend func(types.OutPoint) uint64
	}{
		{"constant", func(crypto.Hash) uint64 { return 7 }, func(types.OutPoint) uint64 { return 7 }},
		{"one bit", func(id crypto.Hash) uint64 { return uint64(id[5] & 1) },
			func(op types.OutPoint) uint64 { return uint64(op.TxID[5]^byte(op.Index)) & 1 }},
	} {
		t.Run(keys.name, func(t *testing.T) {
			txKeyWas, spendKeyWas := txKey, spendKey
			txKey, spendKey = keys.tx, keys.spend
			defer func() { txKey, spendKey = txKeyWas, spendKeyWas }()
			for seed := int64(1); seed <= 12; seed++ {
				t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { matchModel(t, seed) })
			}
		})
	}
}

// matchModel is one seed's run of the reference model check.
func matchModel(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	universe, values := modelUniverse(r, 40)
	limits := []Limits{{}, {MaxTxs: 6}, {MaxBytes: 2_500}, {MaxTxs: 10, MaxBytes: 4_000}}[seed%4]
	p := New()
	p.SetLimits(limits)
	m := &refPool{limits: limits, tombs: map[crypto.Hash]int{}}
	if seed%3 != 0 {
		m.values = values
		p.SetFeeResolver(func(op types.OutPoint) (types.Amount, bool) {
			v, ok := values[op]
			return v, ok
		})
	}
	pick := func() []*types.Transaction {
		out := make([]*types.Transaction, r.Intn(4))
		for i := range out {
			out[i] = universe[r.Intn(len(universe))]
		}
		return out
	}
	for step := 0; step < 3_000; step++ {
		switch op := r.Intn(20); {
		case op < 9:
			x := universe[r.Intn(len(universe))]
			got, want := p.Add(x), m.add(x)
			if got != want {
				t.Fatalf("step %d: Add = %v, model %v", step, got, want)
			}
		case op < 13:
			txs := pick()
			p.RemoveConfirmed(txs)
			m.removeConfirmed(txs)
		case op < 15:
			txs := pick()
			p.Reinsert(txs)
			m.reinsert(txs)
		default:
			budget := r.Intn(5_000)
			got, want := p.Select(budget), m.selectTxs(budget)
			if len(got) != len(want) {
				t.Fatalf("step %d: Select(%d) returned %d, model %d", step, budget, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: Select(%d) differs from the model at %d", step, budget, i)
				}
			}
		}
		st := p.Stats()
		if p.Len() != len(m.live) || st.Txs != len(m.live) || st.Bytes != m.bytes ||
			st.Evictions != m.evictions || st.Rejected != m.rejected {
			t.Fatalf("step %d: stats %+v len %d, model %d txs %d bytes %d evictions %d rejected",
				step, st, p.Len(), len(m.live), m.bytes, m.evictions, m.rejected)
		}
		for _, x := range universe {
			_, tomb := m.tombs[x.ID()]
			held := m.find(x.ID()) >= 0
			if (p.Get(x.ID()) != nil) != held || p.Known(x.ID()) != (held || tomb) {
				t.Fatalf("step %d: held %v Known %v, model held %v tombstoned %v",
					step, p.Get(x.ID()) != nil, p.Known(x.ID()), held, tomb)
			}
		}
	}
}
