package blockstore

import (
	"sync"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/slots"
	"bitcoinng/internal/types"
)

// Mem is the in-memory counterpart of Store: same append-order, same
// idempotent Append keeping the first arrival time, no file. It backs the
// chain index on the default simulation path, where "durable" means
// "survives the simulated crash" — the harness tears down a node's entire
// in-memory client but keeps its Mem, exactly as a real disk survives a
// process crash. Blocks are named, and their bodies archived once, in a
// Table, which a fleet's Mems share with its chain stores. Per block a Mem
// keeps a 16-byte record (ordinal, arrival time) in append order, in chunks
// that never move, and a bit of its membership set. The owning node
// serializes access, except that Get, as Store's, may be called from any
// goroutine; mu guards it against Append.
type Mem struct {
	mu     sync.Mutex
	blocks *Table
	held   slots.Bits
	recs   slots.Chunked[memRecord] // in append order
	n      int32
	latest int64 // the latest block timestamp or arrival time appended
}

// memRecord is one stored block: its ordinal and arrival time.
type memRecord struct {
	ord int32
	at  int64
}

// NewMem builds an empty in-memory archive naming its blocks in t; a nil t
// means a private table.
func NewMem(t *Table) *Mem {
	if t == nil {
		t = NewTable()
	}
	return &Mem{blocks: t}
}

// ordinal returns the ordinal of h if this Mem stores it.
func (m *Mem) ordinal(h crypto.Hash) (int32, bool) {
	o, ok := m.blocks.Lookup(h)
	return o, ok && m.held.Has(o)
}

// Len returns the number of stored blocks.
func (m *Mem) Len() int { return int(m.n) }

// Contains reports whether the block is stored.
func (m *Mem) Contains(h crypto.Hash) bool {
	_, ok := m.ordinal(h)
	return ok
}

// Append stores a block with its arrival time; duplicates are a no-op that
// keeps the original time, mirroring Store. The body goes to the table,
// unless another Mem of the fleet archived it first.
func (m *Mem) Append(b types.Block, receivedAt int64) error {
	o := m.blocks.Intern(b.Hash())
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held.Has(o) {
		return nil
	}
	m.blocks.archive(o, b)
	m.held.Add(o)
	*m.recs.At(m.n) = memRecord{ord: o, at: receivedAt}
	m.n++
	m.latest = max(m.latest, b.Time(), receivedAt)
	return nil
}

// Get loads a block by hash. A miss returns ErrNotFound itself, unwrapped:
// the caller holds the hash it asked for, and a probe then allocates nothing.
func (m *Mem) Get(h crypto.Hash) (types.Block, error) {
	m.mu.Lock()
	o, ok := m.ordinal(h)
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return m.blocks.body(o), nil
}

// Hashes returns the stored block hashes in append order. The caller owns
// the returned slice.
func (m *Mem) Hashes() []crypto.Hash {
	out := make([]crypto.Hash, m.n)
	for i := range m.n {
		out[i] = m.blocks.body(m.recs.At(i).ord).Hash()
	}
	return out
}

// Replay streams every stored block in append order with its recorded
// arrival time, stopping at the first callback error.
func (m *Mem) Replay(fn func(b types.Block, receivedAt int64) error) error {
	for i := range m.n {
		r := m.recs.At(i)
		if err := fn(m.blocks.body(r.ord), r.at); err != nil {
			return err
		}
	}
	return nil
}

// Latest returns the latest block timestamp or arrival time stored; 0 when
// empty.
func (m *Mem) Latest() int64 { return m.latest }

// Sync is a no-op: Mem is durable only against simulated crashes.
func (m *Mem) Sync() error { return nil }

// Close releases nothing; Mem stays readable, because the simulated-crash
// harness keeps reading the survivor.
func (m *Mem) Close() error { return nil }
