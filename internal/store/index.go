package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"bitcoinng/internal/blockstore"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// The chain index pairs a block archive with an arrival-time table. Arrival
// times feed the first-seen tie-break, so they are consensus input: a node
// rebuilt from its index must replay the same (block, receivedAt) pairs its
// first life recorded, or the rebuilt fork choice could prefer a different
// tip than the one the node already acted on.

// MemIndex is the in-memory chain index: the original simulated-durability
// archive plus arrival times.
type MemIndex struct {
	mem   *blockstore.Mem
	times map[crypto.Hash]int64
}

// NewMemIndex builds an empty in-memory index.
func NewMemIndex() *MemIndex {
	return &MemIndex{mem: blockstore.NewMem(), times: make(map[crypto.Hash]int64)}
}

// Append stores the block with its arrival time; duplicates keep the
// original time (the first-seen rule is about the first arrival).
func (m *MemIndex) Append(b types.Block, receivedAt int64) error {
	h := b.Hash()
	if _, dup := m.times[h]; dup {
		return nil
	}
	m.times[h] = receivedAt
	return m.mem.Append(b)
}

// Get loads a block by hash.
func (m *MemIndex) Get(h crypto.Hash) (types.Block, error) { return m.mem.Get(h) }

// Contains reports whether the block is stored.
func (m *MemIndex) Contains(h crypto.Hash) bool { return m.mem.Contains(h) }

// Len returns the number of stored blocks.
func (m *MemIndex) Len() int { return m.mem.Len() }

// Hashes returns the stored block hashes in append order.
func (m *MemIndex) Hashes() []crypto.Hash { return m.mem.Hashes() }

// ReceivedAt returns the recorded arrival time for a stored block.
func (m *MemIndex) ReceivedAt(h crypto.Hash) (int64, bool) {
	t, ok := m.times[h]
	return t, ok
}

// Replay streams blocks in append order with their recorded arrival times.
func (m *MemIndex) Replay(fn func(b types.Block, receivedAt int64) error) error {
	return m.mem.Replay(func(b types.Block) error {
		return fn(b, m.times[b.Hash()])
	})
}

// Sync is a no-op: the in-memory index is "durable" only against simulated
// crashes, exactly like the archive it wraps.
func (m *MemIndex) Sync() error { return nil }

// Close releases nothing; the index stays readable (the simulated-crash
// harness keeps reading the survivor).
func (m *MemIndex) Close() error { return nil }

// recTime is the arrival-time sidecar's record kind: block hash + int64
// arrival time, little-endian.
const recTime byte = 1

// FileIndex is the durable chain index: the checksummed block archive plus
// an arrival-time sidecar in the same record format. The time record is
// written before its block, so a crash between the two leaves at worst an
// orphaned time (harmless), never a block without its time. Replay falls
// back to the block's header timestamp if a torn sidecar tail lost a time —
// a documented best-effort window for unsynced crashes; a Sync/Close'd
// index replays exactly.
type FileIndex struct {
	blocks *blockstore.Store
	times  *os.File
	tPath  string
	tOff   int64
	seen   map[crypto.Hash]int64
}

// OpenFileIndex opens (or creates) the chain index rooted at dir under the
// given name, recovering both files' longest valid prefixes.
func OpenFileIndex(dir, name string) (*FileIndex, error) {
	ix := &FileIndex{
		tPath: filepath.Join(dir, name+".times"),
		seen:  make(map[crypto.Hash]int64),
	}
	tf, off, err := openRecFile(ix.tPath, func(kind byte, payload []byte) error {
		if kind != recTime || len(payload) != crypto.HashSize+8 {
			return fmt.Errorf("store: times %s: bad record", ix.tPath)
		}
		var h crypto.Hash
		copy(h[:], payload)
		if _, dup := ix.seen[h]; !dup {
			ix.seen[h] = int64(binary.LittleEndian.Uint64(payload[crypto.HashSize:]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ix.times = tf
	ix.tOff = off
	bs, err := blockstore.Open(filepath.Join(dir, name+".blocks"))
	if err != nil {
		tf.Close()
		return nil, err
	}
	ix.blocks = bs
	return ix, nil
}

// Append persists the block with its arrival time; duplicates keep the
// original time.
func (ix *FileIndex) Append(b types.Block, receivedAt int64) error {
	h := b.Hash()
	if _, dup := ix.seen[h]; dup {
		return nil
	}
	payload := make([]byte, crypto.HashSize+8)
	copy(payload, h[:])
	binary.LittleEndian.PutUint64(payload[crypto.HashSize:], uint64(receivedAt))
	n, err := appendRec(ix.times, ix.tOff, recTime, payload)
	if err != nil {
		return fmt.Errorf("store: times %s: %w", ix.tPath, err)
	}
	ix.tOff += n
	if err := ix.blocks.Append(b); err != nil {
		return err
	}
	ix.seen[h] = receivedAt
	return nil
}

// Get loads a block by hash.
func (ix *FileIndex) Get(h crypto.Hash) (types.Block, error) { return ix.blocks.Get(h) }

// Contains reports whether the block is stored.
func (ix *FileIndex) Contains(h crypto.Hash) bool { return ix.blocks.Contains(h) }

// Len returns the number of stored blocks.
func (ix *FileIndex) Len() int { return ix.blocks.Len() }

// Hashes returns the stored block hashes in append order.
func (ix *FileIndex) Hashes() []crypto.Hash { return ix.blocks.Hashes() }

// ReceivedAt returns the recorded arrival time for a stored block.
func (ix *FileIndex) ReceivedAt(h crypto.Hash) (int64, bool) {
	t, ok := ix.seen[h]
	return t, ok
}

// Replay streams blocks in append order with their recorded arrival times,
// falling back to the header timestamp for a time lost to a torn sidecar.
func (ix *FileIndex) Replay(fn func(b types.Block, receivedAt int64) error) error {
	return ix.blocks.Replay(func(b types.Block) error {
		t, ok := ix.seen[b.Hash()]
		if !ok {
			t = b.Time()
		}
		return fn(b, t)
	})
}

// Sync fsyncs the sidecar and the block archive.
func (ix *FileIndex) Sync() error {
	if err := ix.times.Sync(); err != nil {
		return fmt.Errorf("store: times sync: %w", err)
	}
	return ix.blocks.Sync()
}

// Close flushes and releases both files.
func (ix *FileIndex) Close() error {
	var first error
	if ix.times != nil {
		if err := ix.times.Sync(); err != nil && first == nil {
			first = err
		}
		if err := ix.times.Close(); err != nil && first == nil {
			first = err
		}
		ix.times = nil
	}
	if ix.blocks != nil {
		if err := ix.blocks.Close(); err != nil && first == nil {
			first = err
		}
		ix.blocks = nil
	}
	return first
}
