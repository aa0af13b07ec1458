// Package blockstore is a node's chain index: every accepted block in append
// order together with its local arrival time, on an append-only file (Store)
// or in memory (Mem). The arrival time is consensus input — the first-seen
// tie-break reads it — so a reopened index replays exactly the (block,
// receivedAt) pairs its first life recorded. Both keep the same records, a
// block's ordinal in the fleet's Table and its arrival time. A Mem's bodies
// are the Table's, archived once for the fleet; a Store's are in its file,
// read and decoded only for a block no fleet header holds in memory.
//
// The file is a sequence of length-prefixed, checksummed records, each naming
// its block; the in-memory index is rebuilt by a single scan on open, which
// decodes nothing, and a torn final record (crash during append) is detected
// and truncated away. Records are written from one retained buffer and read
// back (Get, the scan) into another, so neither direction allocates per
// record beyond the decoded block itself, which owns its bytes (see
// wire.Reader.VarDecode for the rule that makes reuse safe).
//
// Layout per record:
//
//	magic      uint32    // record marker, catches misaligned scans
//	length     uint32    // payload bytes
//	crc32      uint32    // IEEE checksum of every byte after it
//	msgType    uint8     // the block's relay message type (types.BlockMsgType)
//	hash       [32]byte  // the block's hash
//	time       int64     // the block's timestamp
//	receivedAt int64     // local arrival time on the node's clock
//	payload [length]byte // wire-encoded block
package blockstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/slots"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

const (
	recordMagic  uint32 = 0x4e474255 // "UBGN" little-endian
	headerSize          = 4 + 4 + 4 + 1 + 32 + 8 + 8
	maxBlockSize        = wire.MaxMessageSize
)

// oldMagics open the records of earlier layouts: "SBGN", whose arrival times
// lived in a separate sidecar file, and "TBGN", whose records did not name
// their block.
var oldMagics = []uint32{0x4e474253, 0x4e474254}

// Store errors.
var (
	ErrNotFound = errors.New("blockstore: block not found")
	ErrClosed   = errors.New("blockstore: closed")
	// ErrOldFormat refuses a file in an earlier record layout: its records
	// would scan as corruption and be truncated away.
	ErrOldFormat = errors.New("blockstore: file is in an earlier record format")
	// ErrHashMismatch refuses a record whose checksummed payload does not
	// decode to the block its header names.
	ErrHashMismatch = errors.New("blockstore: record payload does not match its block hash")
)

// Store is Mem's records over an append-only block file, with each record's
// location in the file by ordinal. Every Append is fsynced before it
// returns, so a block the store accepted is on stable storage and a crash can
// only lose blocks the caller was never told were safe. The owning node
// serializes access, except that Get may be called from any goroutine (a
// fleet's shared chain headers reload evicted bodies through the archive that
// evicted them); mu guards it.
type Store struct {
	records
	f      file
	size   int64
	locs   slots.Chunked[location] // by ordinal
	rec    wire.Writer             // Append's record buffer, reused across appends
	buf    []byte                  // the read buffer Get and the open scan reuse
	closed bool

	decoded int // records Get and Replay decoded

	// err is sticky: after a failed sync the durable prefix is unknown
	// territory, so every later mutation and sync reports the original
	// failure instead of pretending the store recovered.
	err error
}

// file is what a Store needs of its block file: Open hands it an *os.File, the
// crash tests a memory file that can lose or tear what was never synced.
type file interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Close() error
}

// location is where a held block's record lies in the file.
type location struct {
	off    int64
	length uint32
	typ    wire.MsgType
}

// Open opens (or creates) the store at path, scanning existing records to
// rebuild the index, and names its blocks in the fleet's table t (nil: a
// private table), whose headers Replay takes resident bodies from. A trailing
// partial record — a crash mid-append — is truncated away. A file written in
// an earlier record format is refused with ErrOldFormat and left untouched.
func Open(path string, t *Table) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockstore: open %s: %w", path, err)
	}
	s, err := open(f, t)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s", err, path)
	}
	return s, nil
}

// open builds a store over f, scanning its records (see Open).
func open(f file, t *Table) (*Store, error) {
	if t == nil {
		t = NewTable()
	}
	s := &Store{records: records{blocks: t}, f: f}
	return s, s.scan()
}

// scan rebuilds the index from the record headers, recovering the longest
// valid record prefix: the first sign of corruption — bad magic, absurd
// length, checksum mismatch, or a torn tail — stops the scan and everything
// from that offset on is truncated away. Each payload is read to check its
// checksum but not decoded: the header names the block and carries both its
// times. Open therefore never fails on damaged content, only on I/O errors; a
// crash or disk scribble costs the suffix, not the store. (Records are
// append-ordered, so any prefix is a usable chain history — exactly the
// durable-prefix contract the restart path asserts.) The one exception is a
// file that opens with an earlier layout's magic: it is refused whole rather
// than truncated to nothing.
func (s *Store) scan() error {
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	total := info.Size()
	hdr := make([]byte, headerSize)
	if _, err := s.f.ReadAt(hdr[:4], 0); err == nil && slices.Contains(oldMagics, binary.LittleEndian.Uint32(hdr)) {
		return ErrOldFormat
	}
	var off int64
	for off+headerSize <= total {
		if _, err := s.f.ReadAt(hdr, off); err != nil {
			return err
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != recordMagic {
			break // corruption: recover the prefix scanned so far
		}
		length := binary.LittleEndian.Uint32(hdr[4:8])
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
		if crc32.Update(crc32.ChecksumIEEE(hdr[12:]), crc32.IEEETable, payload) != binary.LittleEndian.Uint32(hdr[8:12]) {
			break // corrupt header fields or payload
		}
		if o := s.blocks.Intern(crypto.Hash(hdr[13:45])); !s.held.Has(o) {
			*s.locs.At(o) = location{off: off, length: length, typ: wire.MsgType(hdr[12])}
			s.add(o, int64(binary.LittleEndian.Uint64(hdr[53:61])), int64(binary.LittleEndian.Uint64(hdr[45:53])))
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
	o := s.blocks.Intern(h)
	if s.held.Has(o) {
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
	typ := types.BlockMsgType(b)
	binary.LittleEndian.PutUint32(rec[0:4], recordMagic)
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(rec)-headerSize))
	rec[12] = byte(typ)
	copy(rec[13:45], h[:])
	binary.LittleEndian.PutUint64(rec[45:53], uint64(b.Time()))
	binary.LittleEndian.PutUint64(rec[53:61], uint64(receivedAt))
	binary.LittleEndian.PutUint32(rec[8:12], crc32.ChecksumIEEE(rec[12:]))
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return fmt.Errorf("blockstore: append record: %w", err)
	}
	if err := s.sync("append sync"); err != nil {
		// The record may or may not have reached the platter; cut it off so
		// disk and index agree on the durable prefix, then refuse further
		// work.
		_ = s.f.Truncate(s.size)
		return err
	}
	*s.locs.At(o) = location{off: s.size, length: uint32(len(rec) - headerSize), typ: typ}
	s.add(o, receivedAt, b.Time())
	s.size += int64(len(rec))
	return nil
}

// Get loads a block by hash, decoding its record. A payload that does not
// decode to the block its record names is refused with ErrHashMismatch, so no
// block is ever served under another's hash.
func (s *Store) Get(h crypto.Hash) (types.Block, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	o, ok := s.ordinal(h)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, h.Short())
	}
	loc := s.locs.At(o)
	payload, err := s.read(loc.off, loc.length)
	if err != nil {
		return nil, fmt.Errorf("blockstore: read %s: %w", h.Short(), err)
	}
	s.decoded++
	b, err := types.DecodeBlockMsg(loc.typ, payload)
	if err != nil || b.Hash() != h {
		return nil, fmt.Errorf("%w: %s", ErrHashMismatch, h.Short())
	}
	return b, nil
}

// Decoded returns how many records Get and Replay have decoded.
func (s *Store) Decoded() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.decoded
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
// root); any other is loaded by Get. Iteration stops at the first error.
func (s *Store) Replay(fn func(b types.Block, receivedAt int64) error) error {
	if s.closed {
		return ErrClosed
	}
	return s.replay(func(o int32) (types.Block, error) {
		if b := s.blocks.resident(o); b != nil {
			return b, nil
		}
		return s.Get(s.blocks.hash(o))
	}, fn)
}

// Sync fsyncs the file. A failure is sticky: the durable prefix's true
// extent is unknown, so the store refuses further mutations until reopened.
func (s *Store) Sync() error {
	if s.closed {
		return ErrClosed
	}
	return s.sync("sync")
}

// sync fsyncs the file for op, unless a sticky failure is pending: it
// returns that failure, or the new one, which becomes sticky.
func (s *Store) sync(op string) error {
	if s.err == nil {
		if err := s.f.Sync(); err != nil {
			s.err = fmt.Errorf("blockstore: %s: %w", op, err)
		}
	}
	return s.err
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
	return errors.Join(s.sync("close sync"), s.f.Close())
}
