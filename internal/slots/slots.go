// Package slots keeps per-holder records indexed by a dense int32, such as a
// blockstore.Table ordinal, at their final size: in fixed chunks that never
// move (Chunked), or one bit each (Bits).
package slots

// chunkLen is how many records a chunk of Chunked holds.
const chunkLen = 8

// Chunked is one holder's records indexed by a dense int32 (a table
// ordinal, an append position), in fixed chunks allocated at first use: a
// record never moves and growth copies only the chunk directory, so each
// record is paid for once, at its final size, however the index space
// grows. The zero value is empty.
type Chunked[T any] struct{ chunks []*[chunkLen]T }

// At returns the record at i, allocating its chunk on first use.
func (s *Chunked[T]) At(i int32) *T {
	c := int(i / chunkLen)
	for c >= len(s.chunks) {
		s.chunks = append(s.chunks, nil)
	}
	if s.chunks[c] == nil {
		s.chunks[c] = new([chunkLen]T)
	}
	return &s.chunks[c][i%chunkLen]
}

// Get returns the record at i, nil if no index of its chunk was used.
func (s *Chunked[T]) Get(i int32) *T {
	if c := int(i / chunkLen); c < len(s.chunks) && s.chunks[c] != nil {
		return &s.chunks[c][i%chunkLen]
	}
	return nil
}

// Bits is a set of indexes, a bit each. The zero value is empty.
type Bits []uint64

// Has reports whether i is in the set.
func (b Bits) Has(i int32) bool { return int(i/64) < len(b) && b[i/64]&(1<<(i%64)) != 0 }

// Add puts i in the set.
func (b *Bits) Add(i int32) {
	for int(i/64) >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[i/64] |= 1 << (i % 64)
}
