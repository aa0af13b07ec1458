package blockstore

import (
	"fmt"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// Mem is the in-memory counterpart of Store: same append-order, same
// idempotent Append keeping the first arrival time, no file. It backs the
// chain index on the default simulation path, where "durable" means
// "survives the simulated crash" — the harness tears down a node's entire
// in-memory client but keeps its Mem, exactly as a real disk survives a
// process crash. Not safe for concurrent use; the owning node serializes
// access.
type Mem struct {
	records []memRecord           // append order
	index   map[crypto.Hash]int32 // block hash → position in records
}

type memRecord struct {
	block      types.Block
	receivedAt int64
}

// NewMem builds an empty in-memory archive.
func NewMem() *Mem {
	return &Mem{index: make(map[crypto.Hash]int32)}
}

// Len returns the number of stored blocks.
func (m *Mem) Len() int { return len(m.records) }

// Contains reports whether the block is stored.
func (m *Mem) Contains(h crypto.Hash) bool {
	_, ok := m.index[h]
	return ok
}

// Append stores a block with its arrival time; duplicates are a no-op that
// keeps the original time, mirroring Store.
func (m *Mem) Append(b types.Block, receivedAt int64) error {
	h := b.Hash()
	if _, dup := m.index[h]; dup {
		return nil
	}
	m.index[h] = int32(len(m.records))
	m.records = append(m.records, memRecord{block: b, receivedAt: receivedAt})
	return nil
}

// Get loads a block by hash.
func (m *Mem) Get(h crypto.Hash) (types.Block, error) {
	i, ok := m.index[h]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, h.Short())
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
