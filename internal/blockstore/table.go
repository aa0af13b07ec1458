package blockstore

import (
	"sync"
	"sync/atomic"

	"bitcoinng/internal/crypto"
)

// tableSegments splits a Table by hash so the shards of a parallel run lock
// disjoint segments; block hashes are uniform, so the first byte spreads the
// load. Power of two, for a mask.
const tableSegments = 16

// Table names block hashes with dense int32 ordinals, 0, 1, 2, ... in the
// order they are first interned. It maps hash → ordinal and nothing else:
// an ordinal is a name, not state, so every holder of a Table keeps its own
// per-block state in slices indexed by ordinal (chain.Store's nodes, Mem's
// record positions) and one map serves them all. A simulated fleet shares
// one Table among its nodes; a nil Table wherever one is accepted means a
// private one.
//
// Ordinals follow interning order, which under a parallel run is the
// scheduling order of the shards, so no result may depend on the order of
// a walk over ordinals (DESIGN.md §9.1). Safe for concurrent use.
type Table struct {
	segs [tableSegments]tableSegment
	n    atomic.Int32
}

type tableSegment struct {
	mu  sync.RWMutex
	ord map[crypto.Hash]int32
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
		o = t.n.Add(1) - 1
		s.ord[h] = o
	}
	return o
}

// Len returns how many hashes have been interned: every ordinal handed out
// so far is below it.
func (t *Table) Len() int { return int(t.n.Load()) }
