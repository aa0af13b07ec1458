package blockstore

import (
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// Mem is the in-memory counterpart of Store: same append-order, same
// idempotent Append keeping the first arrival time, no file. It backs the
// chain index on the default simulation path, where "durable" means
// "survives the simulated crash" — the harness tears down a node's entire
// in-memory client but keeps its Mem, exactly as a real disk survives a
// process crash. Block hashes are named through a Table, which a fleet's
// Mems share with its chain stores; the Mem itself holds only its records
// and, per ordinal, where its record sits. Not safe for concurrent use; the
// owning node serializes access.
type Mem struct {
	blocks  *Table
	records []memRecord // append order
	index   []int32     // ordinal → position in records plus one; 0 = not stored
}

type memRecord struct {
	block      types.Block
	receivedAt int64
}

// NewMem builds an empty in-memory archive naming its blocks in t; a nil t
// means a private table.
func NewMem(t *Table) *Mem {
	if t == nil {
		t = NewTable()
	}
	return &Mem{blocks: t}
}

// position returns the index in records of the block hashed h, or -1.
func (m *Mem) position(h crypto.Hash) int {
	o, ok := m.blocks.Lookup(h)
	if !ok || int(o) >= len(m.index) {
		return -1
	}
	return int(m.index[o]) - 1
}

// Len returns the number of stored blocks.
func (m *Mem) Len() int { return len(m.records) }

// Contains reports whether the block is stored.
func (m *Mem) Contains(h crypto.Hash) bool { return m.position(h) >= 0 }

// Append stores a block with its arrival time; duplicates are a no-op that
// keeps the original time, mirroring Store.
func (m *Mem) Append(b types.Block, receivedAt int64) error {
	o := m.blocks.Intern(b.Hash())
	if int(o) >= len(m.index) {
		// Up to the table's length at once: blocks other holders named
		// already are likely to be appended here next.
		m.index = append(m.index, make([]int32, m.blocks.Len()-len(m.index))...)
	}
	if m.index[o] != 0 {
		return nil
	}
	m.records = append(m.records, memRecord{block: b, receivedAt: receivedAt})
	m.index[o] = int32(len(m.records))
	return nil
}

// Get loads a block by hash. A miss returns ErrNotFound itself, unwrapped:
// the caller holds the hash it asked for, and a probe then allocates nothing.
func (m *Mem) Get(h crypto.Hash) (types.Block, error) {
	i := m.position(h)
	if i < 0 {
		return nil, ErrNotFound
	}
	return m.records[i].block, nil
}

// Hashes returns the stored block hashes in append order. The caller owns
// the returned slice.
func (m *Mem) Hashes() []crypto.Hash {
	out := make([]crypto.Hash, len(m.records))
	for i, r := range m.records {
		out[i] = r.block.Hash()
	}
	return out
}

// Replay streams every stored block in append order with its recorded
// arrival time, stopping at the first callback error.
func (m *Mem) Replay(fn func(b types.Block, receivedAt int64) error) error {
	for _, r := range m.records {
		if err := fn(r.block, r.receivedAt); err != nil {
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
