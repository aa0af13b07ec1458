package utxo

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// ledgerModel is the oracle FuzzLedgerTable checks the persistent table
// against: plain Go maps, copied whole whenever a state must be remembered.
type ledgerModel struct {
	entries  map[types.OutPoint]Entry
	poisoned map[crypto.Hash]bool
}

func newLedgerModel() *ledgerModel {
	return &ledgerModel{entries: map[types.OutPoint]Entry{}, poisoned: map[crypto.Hash]bool{}}
}

func (m *ledgerModel) clone() *ledgerModel {
	c := newLedgerModel()
	for op, e := range m.entries {
		c.entries[op] = e
	}
	for id := range m.poisoned {
		c.poisoned[id] = true
	}
	return c
}

// apply is the model's ApplyBlock: the post-state, or false when the block
// must be rejected (and the ledger left as it was).
func (m *ledgerModel) apply(txs []*types.Transaction, ctx BlockContext) (*ledgerModel, bool) {
	w := m.clone()
	for _, tx := range txs {
		txid := tx.ID()
		switch tx.Kind {
		case types.TxPoison:
			culprit, ok := ctx.PoisonTargets[txid]
			if !ok || w.poisoned[culprit] {
				return nil, false
			}
			for op, e := range w.entries {
				if op.TxID == culprit && !e.Revoked {
					e.Revoked = true
					w.entries[op] = e
				}
			}
			w.poisoned[culprit] = true
		case types.TxCoinbase:
		default:
			var in types.Amount
			for i := range tx.Inputs {
				e, ok := w.entries[tx.Inputs[i].Prev]
				if !ok || e.Revoked || e.To != tx.InputAddr(i) {
					return nil, false
				}
				if e.Coinbase && ctx.Height-e.Height < uint64(ctx.Params.CoinbaseMaturity) {
					return nil, false
				}
				in += e.Value
				delete(w.entries, tx.Inputs[i].Prev)
			}
			if tx.OutputSum() > in {
				return nil, false
			}
		}
		for i, out := range tx.Outputs {
			op := types.OutPoint{TxID: txid, Index: uint32(i)}
			if hasKey(w.entries, op) || hasKey(m.entries, op) {
				return nil, false
			}
			w.entries[op] = Entry{
				Value:    out.Value,
				To:       out.To,
				Coinbase: tx.Kind == types.TxCoinbase && ctx.Height > 0,
				Height:   ctx.Height,
			}
		}
	}
	return w, true
}

// fuzzKey maps a byte to one of 256 distinct outpoints built to share trie
// paths. All have the same first eight TxID bytes except for one byte chosen
// by bits 2–4, XORed with a pattern from bits 5–7: pattern 0 leaves the path
// untouched, so those 32 keys (and every group of four that differs only in
// bits 0–1) agree on all 60 path bits and can only live in a collision
// bucket; the rest diverge at every depth from the root to the last level.
// TxID[9] keeps the outpoints distinct; odd keys past 127 use the output
// index instead, which moves the whole path.
func fuzzKey(k byte) types.OutPoint {
	var op types.OutPoint
	copy(op.TxID[:8], []byte{0xA5, 0x5A, 0xC3, 0x3C, 0x96, 0x69, 0xF0, 0x0F})
	v := k >> 5
	op.TxID[(k>>2)&7] ^= v<<4 | v
	op.TxID[9] = k
	if k >= 128 && k&1 == 1 {
		op.TxID[9] = k - 1
		op.Index = 1
	}
	return op
}

// trieTable is the bare trie FuzzLedgerTable writes to directly: a root, the
// edit batch that owns the nodes it created, and the entry count.
type trieTable struct {
	root *node
	edit *editToken
	n    int
}

func (tt *trieTable) batch() *editToken {
	if tt.edit == nil {
		tt.edit = new(editToken)
	}
	return tt.edit
}

func (tt *trieTable) put(op types.OutPoint, e Entry) {
	root, added := tt.root.put(tt.batch(), &leaf{op: op, e: e}, pathOf(&op), 0)
	tt.root = root
	if added {
		tt.n++
	}
}

func (tt *trieTable) del(op types.OutPoint) {
	root, removed := tt.root.del(tt.batch(), &op, pathOf(&op), 0)
	tt.root = root
	if removed {
		tt.n--
	}
}

// freeze ends the edit batch and returns the current state, which no later
// write may change.
func (tt *trieTable) freeze() *trieTable {
	tt.edit = nil
	return &trieTable{root: tt.root, n: tt.n}
}

// eachOrder returns the outpoints in the trie's iteration order, failing on
// a repeat.
func eachOrder(t *testing.T, root *node) []types.OutPoint {
	t.Helper()
	var order []types.OutPoint
	seen := map[types.OutPoint]bool{}
	root.each(func(l *leaf) bool {
		if seen[l.op] {
			t.Fatalf("each visited %v twice", l.op)
		}
		seen[l.op] = true
		order = append(order, l.op)
		return true
	})
	return order
}

// rangeOrder returns the outpoints in a set's Range order.
func rangeOrder(t *testing.T, s *Set) []types.OutPoint {
	t.Helper()
	var order []types.OutPoint
	s.Range(func(op types.OutPoint, _ Entry) bool {
		order = append(order, op)
		return true
	})
	return order
}

// checkTrie compares everything observable about a trie with the model.
func checkTrie(t *testing.T, what string, tt *trieTable, model map[types.OutPoint]Entry) {
	t.Helper()
	if tt.n != len(model) {
		t.Fatalf("%s: %d entries, model has %d", what, tt.n, len(model))
	}
	order := eachOrder(t, tt.root)
	if len(order) != len(model) {
		t.Fatalf("%s: each visited %d entries, model has %d", what, len(order), len(model))
	}
	for k := 0; k < 256; k++ {
		op := fuzzKey(byte(k))
		l := tt.root.get(&op, pathOf(&op))
		if want, ok := model[op]; ok != (l != nil) || ok && l.e != want {
			t.Fatalf("%s: get(%v) = %v, model has %+v (present %v)", what, op, l, want, ok)
		}
	}
	if !slices.Equal(order, canonicalOrder(t, model)) {
		t.Fatalf("%s: iterates\n%v\ncanonical order is\n%v", what, order, canonicalOrder(t, model))
	}
}

// checkAgainst compares everything observable about s with the model.
func checkAgainst(t *testing.T, what string, s *Set, m *ledgerModel, marks []crypto.Hash) {
	t.Helper()
	if s.Len() != len(m.entries) {
		t.Fatalf("%s: Len = %d, model has %d", what, s.Len(), len(m.entries))
	}
	order := rangeOrder(t, s)
	if len(order) != len(m.entries) {
		t.Fatalf("%s: Range visited %d entries, model has %d", what, len(order), len(m.entries))
	}
	for op, want := range m.entries {
		if got, ok := s.Lookup(op); !ok || got != want {
			t.Fatalf("%s: Lookup(%v) = %+v, %v; model has %+v", what, op, got, ok, want)
		}
	}
	for k := 0; k < 256; k++ {
		op := fuzzKey(byte(k))
		if _, ok := s.Lookup(op); ok != hasKey(m.entries, op) {
			t.Fatalf("%s: Lookup(%v) present = %v, model disagrees", what, op, ok)
		}
	}
	for _, id := range marks {
		if s.Poisoned(id) != m.poisoned[id] {
			t.Fatalf("%s: Poisoned(%s) = %v, model has %v", what, id.Short(), s.Poisoned(id), m.poisoned[id])
		}
	}
}

func hasKey(m map[types.OutPoint]Entry, op types.OutPoint) bool {
	_, ok := m[op]
	return ok
}

// canonicalOrder is the iteration order of a trie built from the contents
// alone, inserted in sorted order: the order any trie with these contents
// must iterate in, whatever history produced it.
func canonicalOrder(t *testing.T, entries map[types.OutPoint]Entry) []types.OutPoint {
	t.Helper()
	keys := make([]types.OutPoint, 0, len(entries))
	for op := range entries {
		keys = append(keys, op)
	}
	slices.SortFunc(keys, func(a, b types.OutPoint) int { return compareOutPoints(&a, &b) })
	tt := &trieTable{root: emptyRoot}
	for _, op := range keys {
		tt.put(op, entries[op])
	}
	return eachOrder(t, tt.root)
}

// FuzzLedgerTable runs a random program over two subjects, each against a
// map model. The trie takes raw put and delete, and freezes snapshots
// between writes. Two sets, a leader and a peer that follows it, change only
// by blocks: the leader applies each block (valid and failing, with poison
// transactions), and the peer crosses the leader's delta by Redo, so it
// adopts, except where the program has it compute the block itself and then
// replay the leader's deltas. Both are then undone and redone, Reset and
// cloned. After every step each subject equals its model and iterates in the
// canonical order of its contents, and every snapshot and post-block version
// taken so far still reads back exactly as when it was taken.
func FuzzLedgerTable(f *testing.F) {
	key, err := crypto.GenerateKey(rand.New(rand.NewSource(17)))
	if err != nil {
		f.Fatal(err)
	}
	addr := key.Public().Addr()
	params := types.DefaultParams()
	params.CoinbaseMaturity = 2

	f.Add([]byte{})
	// Collision bucket: fill it, overwrite, snapshot, drain it back through
	// the fold-up, with a same-TxID pair that differs by index alone.
	f.Add([]byte{0, 0, 192, 0, 4, 192, 0, 8, 192, 1, 12, 192, 0, 200, 192, 1, 201, 192, 3, 0, 4, 193, 2, 0, 2, 8, 2, 77, 2, 12, 2, 4, 2, 201, 2, 200})
	// Blocks only, from empty, so the peer adopts each one: funding, a
	// spend, a two-transaction block with a maturing coinbase, a poison of
	// it; then both sets walk the stack down and up again.
	f.Add([]byte{6, 0, 0, 6, 1, 10, 99, 0, 30, 16, 2, 0, 14, 5, 1, 2, 6, 3, 5, 4, 7, 7, 7, 8, 7, 7, 8, 8, 8, 8, 6, 4, 5})
	// Failing blocks: a missing input, a double spend inside one block, an
	// immature coinbase spend, a second poison of one culprit.
	f.Add([]byte{6, 0, 2, 77, 5, 6, 0, 0, 16, 1, 10, 0, 0, 30, 10, 0, 0, 5, 6, 1, 0, 6, 1, 10, 0, 2, 1, 6, 2, 5, 6, 3, 5})
	// Trie writes between blocks: funding, same-path keys into the trie, a
	// spend of the funding, a delete, a snapshot, undo and redo, Reset and
	// blocks from the empty version again, a clone, more undo and redo.
	f.Add([]byte{6, 0, 0, 0, 0, 192, 0, 4, 192, 6, 1, 10, 0, 0, 30, 2, 0, 3, 7, 8, 9, 6, 0, 0, 6, 1, 10, 0, 1, 1, 4, 7, 7, 8})
	// The peer computes blocks itself (a lost race, an evicted cache entry):
	// it stands on versions of its own and crosses the leader's deltas by
	// replay, in both directions.
	f.Add([]byte{6, 128, 0, 6, 1, 10, 0, 0, 9, 7, 7, 8, 8, 6, 130, 0, 7, 8, 6, 3, 5, 7})
	// A delta replays in its own order, not the block's: creates, spends,
	// revocations, poison marks. The peer crosses by replay a block whose
	// second transaction spends its first one's output and a poison block,
	// forward (the peer computed the block below itself) and back (it
	// computed the block itself), once each, with a Reset between.
	f.Add([]byte{
		6, 128, 0, 16, 0, 10, 0, 0, 30, 10, 0, 2, 20, 6, 128, 0, 6, 0, 1, 7, 7, 7, 7, 8, 8, 8, 8, 9,
		6, 128, 0, 16, 128, 10, 0, 6, 30, 10, 0, 8, 20, 7, 8, 6, 128, 9, 7, 8,
	})

	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 96 {
			prog = prog[:96]
		}
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}

		tab := &trieTable{root: emptyRoot}
		tabModel := map[types.OutPoint]Entry{}
		type frozenTrie struct {
			tab  *trieTable
			want map[types.OutPoint]Entry
		}
		var tabSnaps []frozenTrie

		main, peer := New(), New()
		model := newLedgerModel()
		var marks []crypto.Hash // every coinbase: what Poisoned is asked about

		type frozen struct {
			what string
			set  *Set
			want *ledgerModel
		}
		var taken []frozen
		// block is one applied delta with the model on both sides of it.
		type block struct {
			d         *Delta
			pre, post *ledgerModel
		}
		var applied, undone []block
		var coinbases []crypto.Hash  // culprits a poison may name
		var created []types.OutPoint // outputs of applied transactions
		var serial uint64            // keeps generated transactions distinct
		both := func(fn func(s *Set)) { fn(main); fn(peer) }

		for step := 0; len(prog) > 0; step++ {
			switch op := next(); op % 10 {
			case 0, 1:
				k, v := next(), next()
				e := Entry{Value: types.Amount(v) + 1, To: addr, Coinbase: v&1 == 1, Height: uint64(v >> 1 & 3), Revoked: v&8 != 0}
				if v&16 != 0 {
					e.To = crypto.Address{v}
				}
				tab.put(fuzzKey(k), e)
				tabModel[fuzzKey(k)] = e
			case 2:
				k := next()
				tab.del(fuzzKey(k))
				delete(tabModel, fuzzKey(k))
			case 3:
				tabSnaps = append(tabSnaps, frozenTrie{tab.freeze(), maps.Clone(tabModel)})
			case 4:
				taken = append(taken, frozen{"snapshot", main.Clone(), model.clone()})
			case 5, 6:
				// The high bit of the height byte has the peer compute the
				// block itself instead of crossing the leader's delta.
				hb := next()
				ctx := BlockContext{Height: uint64(hb & 127 % 5), Params: params, PoisonTargets: map[crypto.Hash]crypto.Hash{}}
				var txs []*types.Transaction
				var outs []types.OutPoint
				for n := int(op%3) + 1; n > 0; n-- {
					serial++
					tx := &types.Transaction{Padding: []byte{byte(serial), byte(serial >> 8)}}
					switch sel := next(); {
					case sel%4 == 0:
						tx.Kind = types.TxCoinbase
						tx.Height = serial
						tx.Outputs = []types.TxOutput{{Value: 40, To: addr}, {Value: 2, To: addr}}
					case sel%4 == 1 && len(coinbases) > 0:
						tx.Kind = types.TxPoison
						tx.Evidence = &types.PoisonEvidence{}
						ctx.PoisonTargets[tx.ID()] = coinbases[int(sel>>2)%len(coinbases)]
					default:
						tx.Kind = types.TxRegular
						// An output of an earlier transaction in this
						// block makes an intra-block chain.
						from := fuzzKey(next())
						if pool := append(created[:len(created):len(created)], outs...); sel&8 != 0 && len(pool) > 0 {
							from = pool[int(next())%len(pool)]
						}
						tx.Inputs = []types.TxInput{{Prev: from, PubKey: key.Public()}}
						tx.Outputs = []types.TxOutput{{Value: types.Amount(next() % 64), To: addr}}
					}
					txs = append(txs, tx)
					if tx.Kind == types.TxCoinbase {
						coinbases = append(coinbases, tx.ID())
						marks = append(marks, tx.ID())
					}
					for i := range tx.Outputs {
						outs = append(outs, types.OutPoint{TxID: tx.ID(), Index: uint32(i)})
					}
				}
				post, ok := model.apply(txs, ctx)
				d, _, err := main.ApplyBlock(txs, ctx)
				if (err == nil) != ok {
					t.Fatalf("step %d: ApplyBlock err = %v, model accepts = %v", step, err, ok)
				}
				if ok {
					if hb&128 == 0 {
						peer.RedoBlock(d, BlockRef{})
					} else if _, _, err := peer.ApplyBlock(txs, ctx); err != nil {
						t.Fatalf("step %d: peer rejects the block the leader applied: %v", step, err)
					}
					applied, undone = append(applied, block{d, model, post}), nil
					model = post
					created = append(created, outs...)
					taken = append(taken, frozen{"post-block version", main.Clone(), model.clone()})
				}
			case 7:
				if n := len(applied); n > 0 {
					b := applied[n-1]
					applied, undone = applied[:n-1], append(undone, b)
					both(func(s *Set) { s.UndoBlock(b.d, BlockRef{}) })
					model = b.pre
				}
			case 8:
				if n := len(undone); n > 0 {
					b := undone[n-1]
					undone, applied = undone[:n-1], append(applied, b)
					both(func(s *Set) { s.RedoBlock(b.d, BlockRef{}) })
					model = b.post
				}
			case 9:
				// What was applied can no longer be undone, nor what was
				// undone redone.
				applied, undone = nil, nil
				both(func(s *Set) {
					if err := s.Reset(); err != nil {
						t.Fatal(err)
					}
				})
				model = newLedgerModel()
			}

			checkTrie(t, "trie", tab, tabModel)
			for i, fz := range tabSnaps {
				checkTrie(t, fmt.Sprintf("trie snapshot %d", i), fz.tab, fz.want)
			}
			checkAgainst(t, "leader", main, model, marks)
			checkAgainst(t, "peer", peer, model, marks)
			want := canonicalOrder(t, model.entries)
			if got := rangeOrder(t, main); !slices.Equal(got, want) {
				t.Fatalf("step %d: leader iterates\n%v\ncanonical order is\n%v", step, got, want)
			}
			if got := rangeOrder(t, peer); !slices.Equal(got, want) {
				t.Fatalf("step %d: peer iterates\n%v\ncanonical order is\n%v", step, got, want)
			}
			for _, fz := range taken {
				checkAgainst(t, fz.what, fz.set, fz.want, marks)
			}
		}
	})
}

// TestFuzzKeysCollide pins what the fuzz target's keys are for: distinct
// outpoints, of which the pattern-0 family shares one full trie path.
func TestFuzzKeysCollide(t *testing.T) {
	seen := map[types.OutPoint]bool{}
	for k := 0; k < 256; k++ {
		seen[fuzzKey(byte(k))] = true
	}
	if len(seen) != 256 {
		t.Fatalf("fuzzKey yields %d distinct outpoints, want 256", len(seen))
	}
	a, b := fuzzKey(0), fuzzKey(4)
	if pathOf(&a) != pathOf(&b) || bytes.Equal(a.TxID[:], b.TxID[:]) {
		t.Fatal("fuzzKey(0) and fuzzKey(4) should be distinct outpoints on one path")
	}
	tt := &trieTable{root: emptyRoot}
	for k := 0; k < 32; k++ {
		tt.put(fuzzKey(byte(k)), Entry{Value: 1})
	}
	depth, n := 0, tt.root
	for len(n.kids) == 1 && len(n.leaves) == 0 {
		depth, n = depth+1, n.kids[0]
	}
	if depth != maxDepth || len(n.leaves) != 32 {
		t.Fatalf("32 same-path keys sit at depth %d in a node of %d, want a bucket of 32 at depth %d", depth, len(n.leaves), maxDepth)
	}
}
