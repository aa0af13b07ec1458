package blockstore

import (
	"sync"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// Mem is the in-memory counterpart of Store: same append-order, same
// idempotent Append keeping the first arrival time, no file. It backs the
// chain index on the default simulation path, where "durable" means
// "survives the simulated crash" — the harness tears down a node's entire
// in-memory client but keeps its Mem, exactly as a real disk survives a
// process crash. Blocks are named, and their bodies archived once, in a
// Table, which a fleet's Mems share with its chain stores; a Mem holds only
// its append order and arrival times. The owning node serializes access,
// except that Get, as Store's, may be called from any goroutine; mu guards
// it against Append.
type Mem struct {
	mu     sync.Mutex
	blocks *Table
	order  []int32 // ordinals in append order
	times  []int64 // arrival times, in append order
	index  []int32 // ordinal → position in order plus one; 0 = not stored
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
	return o, ok && int(o) < len(m.index) && m.index[o] != 0
}

// Len returns the number of stored blocks.
func (m *Mem) Len() int { return len(m.order) }

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
	if int(o) >= len(m.index) {
		// Up to the table's length at once: blocks other holders named
		// already are likely to be appended here next.
		m.index = append(m.index, make([]int32, m.blocks.Len()-len(m.index))...)
	}
	if m.index[o] != 0 {
		return nil
	}
	m.blocks.archive(o, b)
	m.order = append(m.order, o)
	m.times = append(m.times, receivedAt)
	m.index[o] = int32(len(m.order))
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
	out := make([]crypto.Hash, len(m.order))
	for i, o := range m.order {
		out[i] = m.blocks.body(o).Hash()
	}
	return out
}

// Replay streams every stored block in append order with its recorded
// arrival time, stopping at the first callback error.
func (m *Mem) Replay(fn func(b types.Block, receivedAt int64) error) error {
	for i, o := range m.order {
		if err := fn(m.blocks.body(o), m.times[i]); err != nil {
			return err
		}
	}
	return nil
}

// Sync is a no-op: Mem is durable only against simulated crashes.
func (m *Mem) Sync() error { return nil }

// Close releases nothing; Mem stays readable, because the simulated-crash
// harness keeps reading the survivor.
func (m *Mem) Close() error { return nil }
