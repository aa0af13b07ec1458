package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Checksummed record I/O for the chain index's arrival-time sidecar. The
// layout matches the blockstore record idiom — magic, kind, length, CRC,
// payload — so both durable files in the system recover the same way: scan
// the longest valid prefix, truncate whatever a crash tore off the tail.
const (
	recMagic      uint32 = 0x4e475354 // "TSGN" little-endian ("NG STore")
	recHeaderSize        = 4 + 1 + 4 + 4
	// maxRecSize bounds a single record payload; anything larger is treated
	// as a corrupt length field during recovery.
	maxRecSize = 16 << 20
)

// appendRec writes one record holding payload at off and returns the bytes
// consumed; header and payload leave in one write. The caller owns offset
// bookkeeping and syncing.
func appendRec(f *os.File, off int64, kind byte, payload []byte) (int64, error) {
	rec := make([]byte, recHeaderSize, recHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], recMagic)
	rec[4] = kind
	binary.LittleEndian.PutUint32(rec[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[9:13], crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)
	if _, err := f.WriteAt(rec, off); err != nil {
		return 0, fmt.Errorf("store: record write: %w", err)
	}
	return int64(len(rec)), nil
}

// scanRecs streams every valid record from the start of f and returns the
// byte length of the longest valid prefix. The first sign of damage — bad
// magic, absurd length, checksum mismatch, torn tail — stops the scan; the
// caller decides whether to truncate. A callback error aborts with that
// error.
func scanRecs(f *os.File, fn func(kind byte, payload []byte) error) (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	total := info.Size()
	var off int64
	hdr := make([]byte, recHeaderSize)
	for off+recHeaderSize <= total {
		if _, err := f.ReadAt(hdr, off); err != nil {
			return off, err
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != recMagic {
			break
		}
		kind := hdr[4]
		length := binary.LittleEndian.Uint32(hdr[5:9])
		wantCRC := binary.LittleEndian.Uint32(hdr[9:13])
		if length > maxRecSize {
			break
		}
		if off+recHeaderSize+int64(length) > total {
			break // torn tail
		}
		payload := make([]byte, length)
		if _, err := f.ReadAt(payload, off+recHeaderSize); err != nil {
			return off, err
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			break
		}
		if err := fn(kind, payload); err != nil {
			return off, err
		}
		off += recHeaderSize + int64(length)
	}
	return off, nil
}

// openRecFile opens (or creates) a record file, replays its valid prefix
// through fn, truncates any damaged tail, and returns the file positioned
// for appends at the returned offset.
func openRecFile(path string, fn func(kind byte, payload []byte) error) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("store: open %s: %w", path, err)
	}
	valid, err := scanRecs(f, fn)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	info, statErr := f.Stat()
	if statErr != nil {
		f.Close()
		return nil, 0, statErr
	}
	if valid < info.Size() {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
		}
	}
	return f, valid, nil
}
