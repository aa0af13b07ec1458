package blockstore

import (
	"sync"
	"sync/atomic"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// tableSegments splits a Table by hash so the shards of a parallel run lock
// disjoint segments; block hashes are uniform, so the first byte spreads the
// load. Power of two, for a mask.
const tableSegments = 16

// Table names block hashes with dense int32 ordinals, 0, 1, 2, ... in the
// order they are first interned, and keeps per ordinal what every holder of
// the block shares: the body its Mems archive and the header its chain
// stores build (Share). What differs, each holder keeps by ordinal itself
// (package slots). A fleet shares one Table; nil means a private one.
//
// Ordinals follow interning order, which under a parallel run is the
// scheduling order of the shards, so no result may depend on the order of
// a walk over ordinals (DESIGN.md §9.1). Safe for concurrent use.
type Table struct {
	segs [tableSegments]tableSegment
	n    atomic.Int32
	// slots is indexed by ordinal; mu guards the slice, not the slots.
	mu    sync.RWMutex
	slots []*slot
}

type tableSegment struct {
	mu  sync.RWMutex
	ord map[crypto.Hash]int32
}

// slot is what a Table keeps for one ordinal; each part is published once.
type slot struct {
	block  atomic.Pointer[types.Block]
	shared atomic.Value
}

// NewTable returns an empty table.
func NewTable() *Table {
	t := &Table{}
	for i := range t.segs {
		t.segs[i].ord = make(map[crypto.Hash]int32)
	}
	return t
}

func (t *Table) segment(h crypto.Hash) *tableSegment {
	return &t.segs[h[0]&(tableSegments-1)]
}

// Lookup returns the ordinal of h, if it was ever interned. It never adds a
// name, so lookups of unknown hashes (an inv flood) cannot grow the table.
func (t *Table) Lookup(h crypto.Hash) (int32, bool) {
	s := t.segment(h)
	s.mu.RLock()
	o, ok := s.ord[h]
	s.mu.RUnlock()
	return o, ok
}

// Intern returns the ordinal of h, naming it with the next one if it has
// none yet. Two callers interning the same hash at once get the same
// ordinal.
func (t *Table) Intern(h crypto.Hash) int32 {
	if o, ok := t.Lookup(h); ok {
		return o
	}
	s := t.segment(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.ord[h]
	if !ok {
		t.mu.Lock()
		o = int32(len(t.slots))
		t.slots = append(t.slots, new(slot))
		t.n.Store(o + 1)
		t.mu.Unlock()
		s.ord[h] = o
	}
	return o
}

// Len returns how many hashes have been interned: every ordinal handed out
// so far is below it.
func (t *Table) Len() int { return int(t.n.Load()) }

func (t *Table) slot(o int32) *slot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.slots[o]
}

// body returns the body archived for ordinal o, nil if none was.
func (t *Table) body(o int32) types.Block {
	if p := t.slot(o).block.Load(); p != nil {
		return *p
	}
	return nil
}

// archive keeps b as the fleet's body for ordinal o unless one is kept
// already: the bodies are equal, since b's hash names o.
func (t *Table) archive(o int32, b types.Block) {
	if s := t.slot(o); s.block.Load() == nil {
		p := new(types.Block)
		*p = b
		s.block.CompareAndSwap(nil, p)
	}
}

// Share returns the value every holder of the table sees for ordinal o,
// publishing mk's unless another holder published one first. Every value
// published in one table must have the same concrete type; chain.Store keeps
// its block headers here.
func (t *Table) Share(o int32, mk func() any) any {
	s := t.slot(o)
	if v := s.shared.Load(); v != nil {
		return v
	}
	s.shared.CompareAndSwap(nil, mk())
	return s.shared.Load()
}
