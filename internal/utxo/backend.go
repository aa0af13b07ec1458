package utxo

import (
	"bytes"
	"slices"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// Backend is the storage engine under a Set: a mutable map from outpoint to
// entry plus the poisoned-coinbase side set. The Set owns all validation and
// delta bookkeeping; a backend only stores. Implementations need not be safe
// for concurrent use — the owning Set serializes access.
//
// The in-memory backend lives here (a persistent hash trie, table.go);
// internal/store adds a file-backed paged table so the set can exceed process
// RAM. Both must behave identically for every method below (the chaos
// differential replays whole experiments across backends and byte-compares
// the reports).
type Backend interface {
	// Get returns the entry for op, if present.
	Get(op types.OutPoint) (Entry, bool)
	// Put inserts or overwrites the entry for op.
	Put(op types.OutPoint, e Entry)
	// Delete removes the entry for op; deleting a missing entry is a no-op.
	Delete(op types.OutPoint)
	// Len returns the number of stored entries.
	Len() int
	// Range iterates entries until fn returns false, in an order that is the
	// same on every run but differs between backends: a function of the
	// contents alone in memory, of the operation history on the paged table.
	// Callers must not mutate during iteration.
	Range(fn func(op types.OutPoint, e Entry) bool)
	// Poisoned reports whether the coinbase txid is in the poisoned set.
	Poisoned(id crypto.Hash) bool
	// SetPoisoned adds (on) or removes (!on) a coinbase txid from the
	// poisoned set.
	SetPoisoned(id crypto.Hash, on bool)
	// Snapshot returns an isolated copy: mutations on either side must not
	// be visible on the other (staged branch validation depends on it). O(1)
	// in memory, where the copy shares the frozen state; a full copy into
	// memory from the paged table.
	Snapshot() Backend
	// Reset drops all entries and poison marks, returning the backend to
	// its empty state (restart-replay begins here).
	Reset() error
	// Sync flushes buffered mutations to stable storage (no-op in memory).
	Sync() error
	// Close releases resources; the backend is unusable afterwards.
	Close() error
	// Stats returns cumulative operation counters.
	Stats() Stats
}

// Stats counts backend operations. All fields are cumulative since
// construction (Reset does not zero them); samplers subtract snapshots.
// Counters are deterministic functions of the operation sequence — no
// timings — so they can be surfaced in metrics without perturbing the
// engine-differential digests.
type Stats struct {
	// Logical entry operations.
	Gets, Puts, Deletes uint64
	// Page-cache hits/misses (file backends; zero in memory).
	CacheHits, CacheMisses uint64
	// Pages transferred to/from disk.
	PageReads, PageWrites uint64
	// Journal appends (file backends).
	JournalRecords, JournalBytes uint64
	// Checkpoints written (file backends).
	Checkpoints uint64
}

// Add accumulates other into s, for aggregating per-node stats fleet-wide.
func (s *Stats) Add(o Stats) {
	s.Gets += o.Gets
	s.Puts += o.Puts
	s.Deletes += o.Deletes
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.PageReads += o.PageReads
	s.PageWrites += o.PageWrites
	s.JournalRecords += o.JournalRecords
	s.JournalBytes += o.JournalBytes
	s.Checkpoints += o.Checkpoints
}

// Sub returns s - o, for turning cumulative counters into per-interval
// deltas at the harness's quiescent sampling boundaries.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Gets:           s.Gets - o.Gets,
		Puts:           s.Puts - o.Puts,
		Deletes:        s.Deletes - o.Deletes,
		CacheHits:      s.CacheHits - o.CacheHits,
		CacheMisses:    s.CacheMisses - o.CacheMisses,
		PageReads:      s.PageReads - o.PageReads,
		PageWrites:     s.PageWrites - o.PageWrites,
		JournalRecords: s.JournalRecords - o.JournalRecords,
		JournalBytes:   s.JournalBytes - o.JournalBytes,
		Checkpoints:    s.Checkpoints - o.Checkpoints,
	}
}

// ledger is one state of the memory table: the trie root, the entry count
// and the poisoned-coinbase set. Once frozen it is an immutable value — the
// unit that deltas reference and that sets on the same chain tip share.
type ledger struct {
	root *node
	n    int
	// poisoned is sorted and copy-on-write: it holds one hash per proven
	// cheater, so replacing the slice on every change costs nothing that
	// matters and keeps a frozen ledger immutable as a whole.
	poisoned []crypto.Hash
}

// Version names one logical state of a memory-backed ledger. Tags are
// opaque and only comparable: ApplyBlock mints a fresh one for the state it
// produces, every empty ledger carries the same one, and two sets reporting
// equal known versions hold equal contents. The zero Version is "unknown" —
// a file-backed set, or a memory-backed one that was written to behind the
// block operations' back — and equals nothing, itself included, for the
// purposes of adoption.
type Version struct{ tag *byte }

func (v Version) known() bool { return v.tag != nil }

func mintVersion() Version { return Version{new(byte)} }

// emptyVersion tags the empty ledger, so the first block applied to fresh (or
// freshly Reset) sets is shared like any other.
var emptyVersion = mintVersion()

// memBackend is the RAM-bound storage: the persistent trie of table.go. Its
// current state is either frozen (edit == nil: led may be shared with deltas
// and other sets, and is copied before the next write) or private (edit !=
// nil: led and the nodes carrying the token were created since the last
// freeze and are mutated in place). Every method that lets led escape
// freezes first.
type memBackend struct {
	led     *ledger
	edit    *editToken
	version Version
	stats   Stats
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() Backend {
	return &memBackend{led: &ledger{root: emptyRoot}, version: emptyVersion}
}

// mutable returns the private ledger to write into, opening an edit batch if
// the current state is frozen. A raw write makes the version unknown; the
// block operations of Set label their result once the batch is complete.
func (m *memBackend) mutable() *ledger {
	if m.edit == nil {
		led := *m.led
		m.led, m.edit = &led, new(editToken)
	}
	m.version = Version{}
	return m.led
}

// freeze ends the edit batch, if any, and returns the current state, which
// from here on is immutable.
func (m *memBackend) freeze() *ledger {
	m.edit = nil
	return m.led
}

// label freezes the current state and records that it is version v.
func (m *memBackend) label(v Version) *ledger {
	m.version = v
	return m.freeze()
}

// adopt replaces the current state with the frozen ledger led, which is
// version v, and accounts the logical operations a replay reaching the same
// state would have counted.
func (m *memBackend) adopt(led *ledger, v Version, gets, puts, deletes uint32) {
	m.led, m.edit, m.version = led, nil, v
	m.stats.Gets += uint64(gets)
	m.stats.Puts += uint64(puts)
	m.stats.Deletes += uint64(deletes)
}

func (m *memBackend) Get(op types.OutPoint) (Entry, bool) {
	m.stats.Gets++
	if l := m.led.root.get(&op, pathOf(&op)); l != nil {
		return l.e, true
	}
	return Entry{}, false
}

func (m *memBackend) Put(op types.OutPoint, e Entry) {
	m.stats.Puts++
	led := m.mutable()
	root, added := led.root.put(m.edit, &leaf{op: op, e: e}, pathOf(&op), 0)
	led.root = root
	if added {
		led.n++
	}
}

func (m *memBackend) Delete(op types.OutPoint) {
	m.stats.Deletes++
	path := pathOf(&op)
	// Deleting a missing entry is a no-op, and must stay one on a frozen
	// state: look before opening an edit that would void the version.
	if m.edit == nil && m.led.root.get(&op, path) == nil {
		return
	}
	led := m.mutable()
	root, removed := led.root.del(m.edit, &op, path, 0)
	if removed {
		led.root = root
		led.n--
	}
}

func (m *memBackend) Len() int { return m.led.n }

func (m *memBackend) Range(fn func(op types.OutPoint, e Entry) bool) {
	m.led.root.each(func(l *leaf) bool { return fn(l.op, l.e) })
}

func (m *memBackend) findPoisoned(id crypto.Hash) (int, bool) {
	return slices.BinarySearchFunc(m.led.poisoned, id, func(a, b crypto.Hash) int {
		return bytes.Compare(a[:], b[:])
	})
}

func (m *memBackend) Poisoned(id crypto.Hash) bool {
	_, ok := m.findPoisoned(id)
	return ok
}

func (m *memBackend) SetPoisoned(id crypto.Hash, on bool) {
	i, found := m.findPoisoned(id)
	if found == on {
		return
	}
	led := m.mutable()
	if on {
		led.poisoned = slices.Insert(slices.Clone(led.poisoned), i, id)
	} else {
		led.poisoned = slices.Delete(slices.Clone(led.poisoned), i, i+1)
	}
}

// Snapshot shares the frozen state: O(1), and isolated because neither side
// ever writes a frozen node — each copies the paths it changes. The poisoned
// set is part of the state, so a staged branch's poison transaction cannot
// leak into the active state (or vice versa) any more than an entry can. The
// copy keeps the version; its counters start at zero.
func (m *memBackend) Snapshot() Backend {
	return &memBackend{led: m.freeze(), version: m.version}
}

func (m *memBackend) Reset() error {
	m.led, m.edit, m.version = &ledger{root: emptyRoot}, nil, emptyVersion
	return nil
}

func (m *memBackend) Sync() error  { return nil }
func (m *memBackend) Close() error { return nil }

func (m *memBackend) Stats() Stats { return m.stats }
