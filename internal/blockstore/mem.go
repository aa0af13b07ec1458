package blockstore

import (
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// Mem is the in-memory counterpart of Store: the same records, no file. It
// backs the chain index on the default simulation path, where "durable" means
// "survives the simulated crash" — the harness tears down a node's entire
// in-memory client but keeps its Mem, exactly as a real disk survives a
// process crash. Bodies are archived once in the Table, which a fleet's Mems
// share with its chain stores.
type Mem struct{ records }

// NewMem builds an empty in-memory archive naming its blocks in t; a nil t
// means a private table.
func NewMem(t *Table) *Mem {
	if t == nil {
		t = NewTable()
	}
	return &Mem{records{blocks: t}}
}

// Append stores a block with its arrival time; duplicates are a no-op that
// keeps the original time, mirroring Store. The body goes to the table,
// unless another Mem of the fleet archived it first.
func (m *Mem) Append(b types.Block, receivedAt int64) error {
	o := m.blocks.Intern(b.Hash())
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.held.Has(o) {
		m.blocks.archive(o, b)
		m.add(o, receivedAt, b.Time())
	}
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

// Replay streams every stored block in append order with its recorded
// arrival time, stopping at the first callback error.
func (m *Mem) Replay(fn func(b types.Block, receivedAt int64) error) error {
	return m.replay(func(o int32) (types.Block, error) { return m.blocks.body(o), nil }, fn)
}

// Sync is a no-op: Mem is durable only against simulated crashes.
func (m *Mem) Sync() error { return nil }

// Close releases nothing; Mem stays readable, because the simulated-crash
// harness keeps reading the survivor.
func (m *Mem) Close() error { return nil }
