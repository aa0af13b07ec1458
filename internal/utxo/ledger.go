package utxo

import (
	"bytes"
	"slices"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// Stats counts a set's logical entry operations. All fields are cumulative
// since construction (Reset does not zero them); samplers subtract
// snapshots. Counters are deterministic functions of the operation sequence —
// no timings — so they can be surfaced in metrics without perturbing the
// engine-differential digests.
type Stats struct {
	Gets, Puts, Deletes uint64
}

// Add accumulates other into s, for aggregating per-node stats fleet-wide.
func (s *Stats) Add(o Stats) {
	s.Gets += o.Gets
	s.Puts += o.Puts
	s.Deletes += o.Deletes
}

// Sub returns s - o, for turning cumulative counters into per-interval
// deltas at the harness's quiescent sampling boundaries.
func (s Stats) Sub(o Stats) Stats {
	return Stats{Gets: s.Gets - o.Gets, Puts: s.Puts - o.Puts, Deletes: s.Deletes - o.Deletes}
}

// ledger is one state of the table: the trie root, the entry count and the
// poisoned-coinbase set. Once frozen it is an immutable value — the unit that
// deltas reference and that sets on the same chain tip share.
type ledger struct {
	root *node
	n    int
	// poisoned is sorted and copy-on-write: it holds one hash per proven
	// cheater, so replacing the slice on every change costs nothing that
	// matters and keeps a frozen ledger immutable as a whole.
	poisoned []crypto.Hash
}

// Version names one logical state of a ledger. Tags are opaque and only
// comparable: ApplyBlock mints a fresh one for the state it produces, every
// empty ledger carries the same one, and two sets reporting equal versions
// hold equal contents.
type Version struct{ tag *byte }

func mintVersion() Version { return Version{new(byte)} }

// emptyVersion tags the empty ledger, so the first block applied to fresh (or
// freshly Reset) sets is shared like any other.
var emptyVersion = mintVersion()

// The storage primitives below are the set's raw table operations; only the
// block operations call them, and those label the state they leave behind.
// The current state is either frozen (edit == nil: led may be shared with
// deltas and other sets, and is copied before the next write) or private
// (edit != nil: led and the nodes carrying the token were created since the
// last freeze and are mutated in place). Every method that lets led escape
// freezes first.

// mutable returns the private ledger to write into, opening an edit batch if
// the current state is frozen.
func (s *Set) mutable() *ledger {
	if s.edit == nil {
		led := *s.led
		s.led, s.edit = &led, new(editToken)
	}
	return s.led
}

// freeze ends the edit batch, if any, and returns the current state, which
// from here on is immutable.
func (s *Set) freeze() *ledger {
	s.edit = nil
	return s.led
}

// label freezes the current state and records that it is version v.
func (s *Set) label(v Version) *ledger {
	s.version = v
	return s.freeze()
}

// adopt replaces the current state with the frozen ledger led, which is
// version v, and accounts the logical operations a replay reaching the same
// state would have counted.
func (s *Set) adopt(led *ledger, v Version, gets, puts, deletes uint32) {
	s.led, s.edit, s.version = led, nil, v
	s.stats.Gets += uint64(gets)
	s.stats.Puts += uint64(puts)
	s.stats.Deletes += uint64(deletes)
}

func (s *Set) get(op types.OutPoint) (Entry, bool) {
	if l := s.getLeaf(op); l != nil {
		return l.e, true
	}
	return Entry{}, false
}

// getLeaf returns the leaf stored under op, or nil, counting one Get.
func (s *Set) getLeaf(op types.OutPoint) *leaf {
	s.stats.Gets++
	return s.led.root.get(&op, pathOf(&op))
}

// put links l into the table, replacing any entry under the same outpoint.
// Leaves are immutable, so l may live in a delta's created slab.
func (s *Set) put(l *leaf) {
	s.stats.Puts++
	led := s.mutable()
	root, added := led.root.put(s.edit, l, pathOf(&l.op), 0)
	led.root = root
	if added {
		led.n++
	}
}

func (s *Set) del(op types.OutPoint) {
	s.stats.Deletes++
	led := s.mutable()
	root, removed := led.root.del(s.edit, &op, pathOf(&op), 0)
	if removed {
		led.root = root
		led.n--
	}
}

func (s *Set) findPoisoned(id crypto.Hash) (int, bool) {
	return slices.BinarySearchFunc(s.led.poisoned, id, func(a, b crypto.Hash) int {
		return bytes.Compare(a[:], b[:])
	})
}

// setPoisoned adds (on) or removes (!on) a coinbase txid from the poisoned
// set.
func (s *Set) setPoisoned(id crypto.Hash, on bool) {
	i, found := s.findPoisoned(id)
	if found == on {
		return
	}
	led := s.mutable()
	if on {
		led.poisoned = slices.Insert(slices.Clone(led.poisoned), i, id)
	} else {
		led.poisoned = slices.Delete(slices.Clone(led.poisoned), i, i+1)
	}
}
