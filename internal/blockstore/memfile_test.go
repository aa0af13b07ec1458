package blockstore

import (
	"errors"
	"io"
	"io/fs"
	"slices"
)

// Injected failures: a sync that fails, and the crash of the process that
// issued an operation (it sees no later one succeed).
var (
	errDiskFull = errors.New("injected: fsync failed")
	errCrash    = errors.New("injected: crash")
)

// memFile is a block file in memory that keeps what a crash cannot take, the
// bytes of the last successful sync, apart from what it can: the writes and
// truncates issued since. Reads see every issued operation, as a process
// reads through the page cache.
//
// The crash model (ALICE, Pillai et al., OSDI 2014, for an append-only file):
// a crash keeps the synced bytes and, of the operations pending since, a
// prefix in issue order whose last write may be torn at any byte. A torn
// write leaves its file either cut where its bytes stopped landing or at its
// full new length, zeros where they never landed (the size reached the disk
// before the data). A failed sync promises nothing: its pending operations
// stay pending.
type memFile struct {
	data    []byte   // what reads see
	durable []byte   // the bytes of the last successful sync
	pending []fileOp // issued since that sync, in order
	log     []byte   // the bytes of pending writes, which fileOps slice

	// goodSyncs syncs succeed, and every later one fails with errDiskFull;
	// negative: none fails.
	goodSyncs int
	// crashAt is the issue number (from 0, counting writes, syncs and
	// truncates) of the operation the process crashes in; negative: never.
	// That operation is left pending, in flight, and it and every later one
	// fail with errCrash.
	crashAt int
	issued  int
	crashed bool
}

// fileOp is one pending operation: a write of log[from:to] at off, or, with
// trunc set, a truncate to off.
type fileOp struct {
	off      int64
	from, to int
	trunc    bool
}

// newMemFile returns a file holding img as synced bytes; it owns img.
func newMemFile(img []byte) *memFile {
	return &memFile{data: slices.Clone(img), durable: img, goodSyncs: -1, crashAt: -1}
}

// reserve gives the file room for n bytes, so that a test counting a store's
// allocations does not count the file's.
func (m *memFile) reserve(n int) {
	m.data = slices.Grow(m.data, n)
	m.durable = slices.Grow(m.durable, n)
	m.log = slices.Grow(m.log, n)
}

// crash numbers an operation and reports whether the process crashes in it.
func (m *memFile) crash() bool {
	m.crashed = m.issued == m.crashAt
	m.issued++
	return m.crashed
}

// ReadAt reads as an *os.File does: short only at the end of the file, so an
// empty read at the end succeeds.
func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	n := copy(p, m.data[min(off, int64(len(m.data))):])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if m.crashed {
		return 0, errCrash
	}
	from := len(m.log)
	m.log = append(m.log, p...)
	m.pending = append(m.pending, fileOp{off: off, from: from, to: len(m.log)})
	if m.crash() {
		return 0, errCrash
	}
	m.data = put(m.data, off, p)
	return len(p), nil
}

func (m *memFile) Truncate(size int64) error {
	if m.crashed {
		return errCrash
	}
	m.pending = append(m.pending, fileOp{off: size, trunc: true})
	if m.crash() {
		return errCrash
	}
	m.data = resize(m.data, size)
	return nil
}

func (m *memFile) Sync() error {
	if m.crashed || m.crash() {
		return errCrash
	}
	if m.goodSyncs == 0 {
		return errDiskFull
	}
	m.goodSyncs--
	for _, op := range m.pending {
		m.durable = m.apply(m.durable, op, -1)
	}
	m.pending, m.log = m.pending[:0], m.log[:0]
	return nil
}

func (m *memFile) Stat() (fs.FileInfo, error) { return memInfo{size: int64(len(m.data))}, nil }

func (m *memFile) Close() error { return nil }

// memInfo answers the one question Store asks of a file's metadata.
type memInfo struct {
	fs.FileInfo
	size int64
}

func (i memInfo) Size() int64 { return i.size }

// apply performs op on img and returns the result. Of a write, only the
// first landed bytes land (all of them when landed is negative).
func (m *memFile) apply(img []byte, op fileOp, landed int) []byte {
	if op.trunc {
		return resize(img, op.off)
	}
	p := m.log[op.from:op.to]
	if landed >= 0 {
		p = p[:landed]
	}
	return put(img, op.off, p)
}

// crashImages calls fn with every file a crash at this point may leave, each
// a fresh slice fn may keep: the synced bytes with each prefix of the
// pending operations applied, and each way the last of them can be torn.
func (m *memFile) crashImages(fn func(img []byte)) {
	img := slices.Clone(m.durable)
	fn(slices.Clone(img))
	for _, op := range m.pending {
		if !op.trunc {
			n := op.to - op.from
			for landed := 0; landed < n; landed++ {
				if landed > 0 {
					fn(m.apply(slices.Clone(img), op, landed))
				}
				if end := op.off + int64(n); end > int64(len(img)) {
					fn(resize(m.apply(slices.Clone(img), op, landed), end))
				}
			}
		}
		img = m.apply(img, op, -1)
		fn(slices.Clone(img))
	}
}

// put writes p into img at off, extending it with zeros as needed.
func put(img []byte, off int64, p []byte) []byte {
	img = resize(img, max(int64(len(img)), off+int64(len(p))))
	copy(img[off:], p)
	return img
}

// resize cuts img to size or extends it with zeros, allocating only when
// img lacks the room.
func resize(img []byte, size int64) []byte {
	n, old := int(size), len(img)
	if n <= old {
		return img[:n]
	}
	img = slices.Grow(img, n-old)[:n]
	clear(img[old:])
	return img
}
