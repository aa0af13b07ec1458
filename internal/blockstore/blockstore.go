// Package blockstore is a node's chain index: every accepted block in append
// order together with its local arrival time, on an append-only file (Store)
// or in memory (Mem). The arrival time is consensus input — the first-seen
// tie-break reads it — so a reopened index replays exactly the (block,
// receivedAt) pairs its first life recorded, and both live in one record
// under one checksum. A fleet's Mems share a Table, which names each block
// and keeps its body once for all of them; a Mem keeps only its order and
// arrival times. A Store replays from the same Table: a block whose fleet
// header holds its body in memory is handed over as that object, and only a
// body nobody holds is read from the file and decoded.
//
// The file is a sequence of length-prefixed, checksummed records; the
// in-memory index is rebuilt by a single scan on open, and a torn final
// record (crash during append) is detected and truncated away. Records are
// written from one retained buffer and read back (Get, the scan) into
// another, so neither direction allocates per record beyond the decoded block
// itself, which owns its bytes (see wire.Reader.VarDecode for the rule that
// makes reuse safe).
//
// Layout per record:
//
//	magic      uint32  // record marker, catches misaligned scans
//	kind       uint8   // types.BlockKind
//	length     uint32  // payload bytes
//	crc32      uint32  // IEEE checksum of receivedAt and the payload
//	receivedAt int64   // local arrival time on the node's clock
//	payload [length]byte  // wire-encoded block
package blockstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

const (
	recordMagic uint32 = 0x4e474254 // "TBGN" little-endian
	// legacyMagic opened every record of the layout without receivedAt,
	// whose arrival times lived in a separate sidecar file.
	legacyMagic  uint32 = 0x4e474253 // "SBGN" little-endian
	headerSize          = 4 + 1 + 4 + 4 + 8
	maxBlockSize        = wire.MaxMessageSize
)

// Store errors.
var (
	ErrNotFound = errors.New("blockstore: block not found")
	ErrClosed   = errors.New("blockstore: closed")
	// ErrOldFormat refuses a file in the layout without arrival times: its
	// records would scan as corruption and be truncated away.
	ErrOldFormat = errors.New("blockstore: file is in the old record format without arrival times")
)

// Store is an append-only block file with an in-memory offset index. Every
// Append is fsynced before it returns, so a block the store accepted is on
// stable storage and a crash can only lose blocks the caller was never told
// were safe. The owning node serializes access, except that Get may be
// called from any goroutine (a fleet's shared chain headers reload evicted
// bodies through the archive that evicted them); mu guards it.
type Store struct {
	mu     sync.Mutex
	f      *os.File
	size   int64
	index  map[crypto.Hash]recordRef
	order  []crypto.Hash // append order, for replay
	rec    wire.Writer   // Append's record buffer, reused across appends
	buf    []byte        // the read buffer Get and the open scan reuse
	blocks *Table        // the fleet's headers, whose resident bodies Replay takes
	closed bool

	// syncFn stands in for f.Sync so failure-injection tests can make
	// durability fail without a real bad disk.
	syncFn func() error
	// err is sticky: after a failed sync the durable prefix is unknown
	// territory, so every later mutation and sync reports the original
	// failure instead of pretending the store recovered.
	err error
}

type recordRef struct {
	offset     int64
	receivedAt int64
	kind       types.BlockKind
	length     uint32
}

// Open opens (or creates) the store at path, scanning existing records to
// rebuild the index, and replays against the fleet's headers in t (nil: a
// private table, which holds none). A trailing partial record — a crash
// mid-append — is truncated away. A file written in the old record format is
// refused with ErrOldFormat and left untouched.
func Open(path string, t *Table) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockstore: open %s: %w", path, err)
	}
	s := &Store{
		f:      f,
		index:  make(map[crypto.Hash]recordRef),
		blocks: t,
	}
	s.syncFn = s.f.Sync
	if err := s.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// SetSyncHook replaces the fsync primitive, letting tests inject durability
// failures. A nil hook restores the real fsync.
func (s *Store) SetSyncHook(hook func() error) {
	if hook == nil {
		s.syncFn = s.f.Sync
		return
	}
	s.syncFn = hook
}

// scan rebuilds the index, recovering the longest valid record prefix: the
// first sign of corruption — bad magic, absurd length, checksum mismatch,
// undecodable payload, or a torn tail — stops the scan and everything from
// that offset on is truncated away. Open therefore never fails on damaged
// content, only on I/O errors; a crash or disk scribble costs the suffix, not
// the store. (Records are append-ordered, so any prefix is a usable chain
// history — exactly the durable-prefix contract the restart path asserts.)
// The one exception is a file that opens with the old format's magic: it is
// refused whole rather than truncated to nothing.
func (s *Store) scan() error {
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	total := info.Size()
	hdr := make([]byte, headerSize)
	if _, err := s.f.ReadAt(hdr[:4], 0); err == nil && binary.LittleEndian.Uint32(hdr) == legacyMagic {
		return fmt.Errorf("%w: %s", ErrOldFormat, s.f.Name())
	}
	var off int64
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
		payload, err := s.read(off, length)
		if err != nil {
			return err
		}
		if crc32.Update(crc32.ChecksumIEEE(hdr[13:]), crc32.IEEETable, payload) != wantCRC {
			break // corrupt arrival time or payload
		}
		b, err := decodeBlock(kind, payload)
		if err != nil {
			break // checksum matched but content does not parse (bad kind?)
		}
		h := b.Hash()
		if _, dup := s.index[h]; !dup {
			receivedAt := int64(binary.LittleEndian.Uint64(hdr[13:21]))
			s.index[h] = recordRef{offset: off, receivedAt: receivedAt, kind: kind, length: length}
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

// Append persists a block with its arrival time. Appending an already-stored
// block is a no-op that keeps the original time — the first-seen rule is
// about the first arrival — so callers can feed every accepted block without
// tracking. The record is fsynced before Append returns: an acknowledged
// block is durable, full stop. A failed sync unwinds the record — the file is
// truncated back so the on-disk prefix stays exactly the acknowledged set —
// and poisons the store (see Store.err).
func (s *Store) Append(b types.Block, receivedAt int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	// go out in one write. The writer is sized for the whole record first,
	// so a record larger than any before it costs one allocation, not a
	// chain of growing copies.
	var hdr [headerSize]byte
	s.rec.Reset()
	s.rec.Grow(headerSize + b.WireSize())
	s.rec.Raw(hdr[:])
	b.EncodeWire(&s.rec)
	rec := s.rec.Bytes()
	payload := rec[headerSize:]
	binary.LittleEndian.PutUint32(rec[0:4], recordMagic)
	rec[4] = byte(b.Kind())
	binary.LittleEndian.PutUint32(rec[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[13:21], uint64(receivedAt))
	binary.LittleEndian.PutUint32(rec[9:13], crc32.ChecksumIEEE(rec[13:]))
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return fmt.Errorf("blockstore: append record: %w", err)
	}
	if err := s.syncFn(); err != nil {
		// The record may or may not have reached the platter; cut it off so
		// disk and index agree on the durable prefix, then refuse further
		// work.
		_ = s.f.Truncate(s.size)
		s.err = fmt.Errorf("blockstore: append sync: %w", err)
		return s.err
	}
	s.index[h] = recordRef{offset: s.size, receivedAt: receivedAt, kind: b.Kind(), length: uint32(len(payload))}
	s.order = append(s.order, h)
	s.size += int64(len(rec))
	return nil
}

// Get loads a block by hash.
func (s *Store) Get(h crypto.Hash) (types.Block, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	ref, ok := s.index[h]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, h.Short())
	}
	payload, err := s.read(ref.offset, ref.length)
	if err != nil {
		return nil, fmt.Errorf("blockstore: read %s: %w", h.Short(), err)
	}
	return decodeBlock(ref.kind, payload)
}

// read returns the payload of the record at offset, read into the store's one
// read buffer: it is valid until the next read, which is why callers decode it
// before anything else touches the store (a decoded block copies what it
// keeps; see wire.Reader.VarDecode).
func (s *Store) read(offset int64, length uint32) ([]byte, error) {
	s.buf = slices.Grow(s.buf[:0], int(length))
	payload := s.buf[:length]
	if _, err := s.f.ReadAt(payload, offset+headerSize); err != nil {
		return nil, err
	}
	return payload, nil
}

// Replay streams every stored block in append order with its recorded
// arrival time — parents before children for blocks a node accepted, which is
// exactly what chain reconstruction needs. A block whose fleet header holds
// its body is that body, the same bytes by the hash's commitment (a body
// reaches a header only after CheckBlock folded its transactions to the
// root); any other is read from its record and decoded. Iteration stops at
// the first callback error.
func (s *Store) Replay(fn func(b types.Block, receivedAt int64) error) error {
	if s.closed {
		return ErrClosed
	}
	for _, h := range s.order {
		b := s.blocks.resident(h)
		if b == nil {
			var err error
			if b, err = s.Get(h); err != nil {
				return err
			}
		}
		if err := fn(b, s.index[h].receivedAt); err != nil {
			return err
		}
	}
	return nil
}

// Sync fsyncs the file. A failure is sticky: the durable prefix's true
// extent is unknown, so the store refuses further mutations until reopened.
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
	return nil
}

// Close syncs and closes the file, reporting a sticky failure if one is
// pending — callers that ignored an Append error still hear about it here.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
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
