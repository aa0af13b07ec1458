// Package blockstore persists blocks to an append-only file so a live node
// (cmd/ngnode) can restart without losing its chain. The format is a
// sequence of length-prefixed, checksummed records; the in-memory index is
// rebuilt by a single scan on open, and a torn final record (crash during
// append) is detected and truncated away.
//
// Layout per record:
//
//	magic  uint32  // record marker, catches misaligned scans
//	kind   uint8   // types.BlockKind
//	length uint32  // payload bytes
//	crc32  uint32  // IEEE checksum of the payload
//	payload [length]byte  // wire-encoded block
package blockstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

const (
	recordMagic  uint32 = 0x4e474253 // "SBGN" little-endian
	headerSize          = 4 + 1 + 4 + 4
	maxBlockSize        = wire.MaxMessageSize
)

// Store errors. ErrCorrupt is kept for callers that probed damage in older
// versions; Open now recovers the longest valid prefix instead of returning
// it.
var (
	ErrCorrupt  = errors.New("blockstore: corrupt record")
	ErrNotFound = errors.New("blockstore: block not found")
	ErrClosed   = errors.New("blockstore: closed")
)

// SyncPolicy says when Append makes records durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs before Append acknowledges — the default. A block
	// the store accepted is on stable storage; a crash can only lose blocks
	// the caller was never told were safe.
	SyncAlways SyncPolicy = iota
	// SyncManual defers durability to explicit Sync calls. Batch harnesses
	// that sync at quiescent boundaries (and tolerate losing the tail back
	// to the last Sync) opt in; Durable reports the acknowledged watermark.
	SyncManual
)

// Store is an append-only block file with an in-memory offset index. It is
// not safe for concurrent use; the owning node serializes access.
type Store struct {
	f      *os.File
	path   string
	size   int64
	index  map[crypto.Hash]recordRef
	order  []crypto.Hash // append order, for replay
	rec    wire.Writer   // Append's record buffer, reused across appends
	closed bool

	policy SyncPolicy
	// durable is the byte offset up to which records are known to be on
	// stable storage (fsync acknowledged).
	durable int64
	// syncFn stands in for f.Sync so failure-injection tests can make
	// durability fail without a real bad disk.
	syncFn func() error
	// err is sticky: after a failed sync the durable watermark is unknown
	// territory, so every later mutation and sync reports the original
	// failure instead of pretending the store recovered.
	err error
}

type recordRef struct {
	offset int64
	kind   types.BlockKind
	length uint32
}

// Open opens (or creates) the store at path, scanning existing records to
// rebuild the index. A trailing partial record — a crash mid-append — is
// truncated away.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockstore: open %s: %w", path, err)
	}
	s := &Store{
		f:     f,
		path:  path,
		index: make(map[crypto.Hash]recordRef),
	}
	s.syncFn = s.f.Sync
	if err := s.scan(); err != nil {
		f.Close()
		return nil, err
	}
	// Whatever survived the scan was read back from the file, so it is the
	// durable prefix by construction.
	s.durable = s.size
	return s, nil
}

// SetSyncPolicy selects when appends become durable; see SyncPolicy.
func (s *Store) SetSyncPolicy(p SyncPolicy) { s.policy = p }

// SetSyncHook replaces the fsync primitive, letting tests inject durability
// failures. A nil hook restores the real fsync.
func (s *Store) SetSyncHook(hook func() error) {
	if hook == nil {
		s.syncFn = s.f.Sync
		return
	}
	s.syncFn = hook
}

// Durable returns the byte offset of the acknowledged-durable prefix. Under
// SyncAlways it tracks the file size; under SyncManual it advances only at
// Sync, and a crash may lose everything past it.
func (s *Store) Durable() int64 { return s.durable }

// scan rebuilds the index, recovering the longest valid record prefix: the
// first sign of corruption — bad magic, absurd length, checksum mismatch,
// undecodable payload, or a torn tail — stops the scan and everything from
// that offset on is truncated away. Open therefore never fails on damaged
// content, only on I/O errors; a crash or disk scribble costs the suffix, not
// the store. (Records are append-ordered, so any prefix is a usable chain
// history — exactly the durable-prefix contract the restart path asserts.)
func (s *Store) scan() error {
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	total := info.Size()
	var off int64
	hdr := make([]byte, headerSize)
	for off+headerSize <= total {
		if _, err := s.f.ReadAt(hdr, off); err != nil {
			return err
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != recordMagic {
			break // corruption: recover the prefix scanned so far
		}
		kind := types.BlockKind(hdr[4])
		length := binary.LittleEndian.Uint32(hdr[5:9])
		wantCRC := binary.LittleEndian.Uint32(hdr[9:13])
		if length > maxBlockSize {
			break // corrupt length field
		}
		if off+headerSize+int64(length) > total {
			break // torn tail: truncate below
		}
		payload := make([]byte, length)
		if _, err := s.f.ReadAt(payload, off+headerSize); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			break // corrupt payload
		}
		b, err := decodeBlock(kind, payload)
		if err != nil {
			break // checksum matched but content does not parse (bad kind?)
		}
		h := b.Hash()
		if _, dup := s.index[h]; !dup {
			s.index[h] = recordRef{offset: off, kind: kind, length: length}
			s.order = append(s.order, h)
		}
		off += headerSize + int64(length)
	}
	if off < total {
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("blockstore: truncating corrupt tail: %w", err)
		}
	}
	s.size = off
	return nil
}

func decodeBlock(kind types.BlockKind, payload []byte) (types.Block, error) {
	switch kind {
	case types.KindPow:
		b := new(types.PowBlock)
		return b, wire.Decode(payload, b)
	case types.KindKey:
		b := new(types.KeyBlock)
		return b, wire.Decode(payload, b)
	case types.KindMicro:
		b := new(types.MicroBlock)
		return b, wire.Decode(payload, b)
	default:
		return nil, fmt.Errorf("unknown block kind %d", kind)
	}
}

// Len returns the number of stored blocks.
func (s *Store) Len() int { return len(s.index) }

// Hashes returns the stored block hashes in append order. The caller owns
// the returned slice.
func (s *Store) Hashes() []crypto.Hash {
	out := make([]crypto.Hash, len(s.order))
	copy(out, s.order)
	return out
}

// Contains reports whether the block is stored.
func (s *Store) Contains(h crypto.Hash) bool {
	_, ok := s.index[h]
	return ok
}

// Append persists a block. Appending an already-stored block is a no-op, so
// callers can feed every accepted block without tracking. Under SyncAlways
// (the default) the record is fsynced before Append returns: an
// acknowledged block is durable, full stop. A failed sync unwinds the
// record — the file is truncated back so the on-disk prefix stays exactly
// the acknowledged set — and poisons the store (see Store.err).
func (s *Store) Append(b types.Block) error {
	if s.closed {
		return ErrClosed
	}
	if s.err != nil {
		return s.err
	}
	h := b.Hash()
	if _, dup := s.index[h]; dup {
		return nil
	}
	// Header and payload are built contiguously in the retained writer and
	// go out in one write.
	var hdr [headerSize]byte
	s.rec.Reset()
	s.rec.Raw(hdr[:])
	b.EncodeWire(&s.rec)
	rec := s.rec.Bytes()
	payload := rec[headerSize:]
	binary.LittleEndian.PutUint32(rec[0:4], recordMagic)
	rec[4] = byte(b.Kind())
	binary.LittleEndian.PutUint32(rec[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[9:13], crc32.ChecksumIEEE(payload))
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return fmt.Errorf("blockstore: append record: %w", err)
	}
	newSize := s.size + headerSize + int64(len(payload))
	if s.policy == SyncAlways {
		if err := s.syncFn(); err != nil {
			// The record may or may not have reached the platter; cut it
			// off so disk and index agree on the durable prefix, then
			// refuse further work.
			_ = s.f.Truncate(s.size)
			s.err = fmt.Errorf("blockstore: append sync: %w", err)
			return s.err
		}
		s.durable = newSize
	}
	s.index[h] = recordRef{offset: s.size, kind: b.Kind(), length: uint32(len(payload))}
	s.order = append(s.order, h)
	s.size = newSize
	return nil
}

// Get loads a block by hash.
func (s *Store) Get(h crypto.Hash) (types.Block, error) {
	if s.closed {
		return nil, ErrClosed
	}
	ref, ok := s.index[h]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, h.Short())
	}
	payload := make([]byte, ref.length)
	if _, err := s.f.ReadAt(payload, ref.offset+headerSize); err != nil {
		return nil, fmt.Errorf("blockstore: read %s: %w", h.Short(), err)
	}
	return decodeBlock(ref.kind, payload)
}

// Replay streams every stored block in append order — parents before
// children for blocks a node accepted, which is exactly what chain
// reconstruction needs. Iteration stops at the first callback error.
func (s *Store) Replay(fn func(types.Block) error) error {
	if s.closed {
		return ErrClosed
	}
	for _, h := range s.order {
		b, err := s.Get(h)
		if err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes appended records to stable storage and advances the durable
// watermark. A failure is sticky: the watermark's true position is unknown,
// so the store refuses further mutations until reopened.
func (s *Store) Sync() error {
	if s.closed {
		return ErrClosed
	}
	if s.err != nil {
		return s.err
	}
	if err := s.syncFn(); err != nil {
		s.err = fmt.Errorf("blockstore: sync: %w", err)
		return s.err
	}
	s.durable = s.size
	return nil
}

// Close syncs and closes the file, reporting a sticky failure if one is
// pending — callers that ignored an Append error still hear about it here.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.err != nil {
		s.f.Close()
		return s.err
	}
	if err := s.syncFn(); err != nil {
		s.f.Close()
		return fmt.Errorf("blockstore: close sync: %w", err)
	}
	return s.f.Close()
}

// Path returns the backing file path.
func (s *Store) Path() string { return s.path }

// ReplayInto feeds every stored block into a chain state in append order,
// ignoring duplicates and stale orphans (a pruned parent may have been
// truncated). It returns how many blocks connected into the tree. io.EOF
// from the callback aborts cleanly for partial replays.
func ReplayInto(s *Store, add func(types.Block) error) (int, error) {
	n := 0
	err := s.Replay(func(b types.Block) error {
		if err := add(b); err != nil {
			if errors.Is(err, io.EOF) {
				return err
			}
			return nil // invalid/stale records are skipped, not fatal
		}
		n++
		return nil
	})
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return n, err
}
