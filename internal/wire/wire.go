// Package wire implements the deterministic binary serialization used by
// every on-the-wire and on-disk structure in this repository.
//
// The format is deliberately simple and self-contained:
//
//   - fixed-width integers are little-endian,
//   - variable-length integers use the Bitcoin "CompactSize" encoding,
//   - byte strings and lists are length-prefixed with a CompactSize.
//
// Encoding is deterministic: the same value always produces the same bytes,
// which is required because block hashes are computed over serialized
// headers. Decoding is strict: trailing garbage, oversized lengths, and
// non-canonical CompactSize encodings are rejected, so a hash computed over
// a decoded-then-reencoded message always matches the original.
//
// Buffers are meant to be reused: digests encode into pooled Writers, the
// live transport reads every frame of a connection into one Envelope, and
// batch members decode in place (Reader.VarDecode). That is safe because of
// one rule every DecodeWire follows: a decoder copies whatever it keeps —
// Bytes32, VarBytes and Raw all copy — and never retains a slice of the
// Reader's buffer.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Maximum sizes accepted by the decoder. These bound allocation before any
// validation happens, so a malicious peer cannot make a node allocate
// gigabytes from a short prefix.
const (
	// MaxMessageSize is the largest protocol message a peer will accept.
	// It comfortably exceeds the largest experiment block size (1 MB
	// payload blocks at the lowest frequency of Figure 8a).
	MaxMessageSize = 4 << 20

	// MaxListLen is the largest element count accepted for any serialized
	// list (transactions per block, inputs per transaction, ...).
	MaxListLen = 1 << 20
)

// Encoding/decoding errors.
var (
	ErrTooLarge     = errors.New("wire: size exceeds maximum")
	ErrNonCanonical = errors.New("wire: non-canonical encoding")
	ErrTrailing     = errors.New("wire: trailing bytes after message")
)

// Writer serializes values into an in-memory buffer. The zero value is ready
// to use. Writer never fails: it grows its buffer as needed, and callers read
// the result with Bytes.
//
// A Writer in counting mode (see Size) runs the same methods but only adds
// up the bytes they would append. Sizes are therefore measured by the very
// EncodeWire code that produces the bytes — the two cannot drift — without
// building, or allocating, the encoding.
type Writer struct {
	buf      []byte
	counting bool
	n        int // bytes counted so far (counting mode only)
}

// NewWriter returns a Writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// Bytes returns the serialized contents. The slice aliases the Writer's
// internal buffer and is invalidated by further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written (or counted) so far.
func (w *Writer) Len() int { return len(w.buf) + w.n }

// Reset truncates the writer so the buffer can be reused.
func (w *Writer) Reset() { w.buf, w.n = w.buf[:0], 0 }

// Uint8 appends a single byte.
func (w *Writer) Uint8(v uint8) {
	if w.counting {
		w.n++
		return
	}
	w.buf = append(w.buf, v)
}

// Bool appends a boolean as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Uint16 appends a little-endian 16-bit integer.
func (w *Writer) Uint16(v uint16) {
	if w.counting {
		w.n += 2
		return
	}
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
}

// Uint32 appends a little-endian 32-bit integer.
func (w *Writer) Uint32(v uint32) {
	if w.counting {
		w.n += 4
		return
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// Uint64 appends a little-endian 64-bit integer.
func (w *Writer) Uint64(v uint64) {
	if w.counting {
		w.n += 8
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Int64 appends a little-endian 64-bit signed integer.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// VarInt appends v using the CompactSize encoding: values below 0xfd are a
// single byte; larger values use a 0xfd/0xfe/0xff marker followed by a
// little-endian 16/32/64-bit integer. The encoder always emits the shortest
// form, and the decoder rejects longer (non-canonical) forms.
func (w *Writer) VarInt(v uint64) {
	switch {
	case v < 0xfd:
		w.Uint8(uint8(v))
	case v <= math.MaxUint16:
		w.Uint8(0xfd)
		w.Uint16(uint16(v))
	case v <= math.MaxUint32:
		w.Uint8(0xfe)
		w.Uint32(uint32(v))
	default:
		w.Uint8(0xff)
		w.Uint64(v)
	}
}

// Bytes32 appends a fixed 32-byte array (hashes).
func (w *Writer) Bytes32(v [32]byte) {
	if w.counting {
		w.n += 32
		return
	}
	w.buf = append(w.buf, v[:]...)
}

// VarBytes appends a CompactSize length prefix followed by the bytes.
func (w *Writer) VarBytes(b []byte) {
	w.VarInt(uint64(len(b)))
	w.Raw(b)
}

// Raw appends bytes with no length prefix. The caller is responsible for
// framing.
func (w *Writer) Raw(b []byte) {
	if w.counting {
		w.n += len(b)
		return
	}
	w.buf = append(w.buf, b...)
}

// Embed writes e in place, the mirror of calling e.DecodeWire on the same
// Reader. A counting Writer adds e's memoized WireSize instead of walking e,
// so sizing a message costs O(members), not O(bytes).
func (w *Writer) Embed(e Sized) {
	if w.counting {
		w.n += e.WireSize()
		return
	}
	w.encode(e)
}

// VarEncode writes e as a list member — its WireSize as a CompactSize, then
// e in place — the mirror of Reader.VarDecode. Like Embed it counts e from
// its memoized size.
func (w *Writer) VarEncode(e Sized) {
	n := e.WireSize()
	w.VarInt(uint64(n))
	if w.counting {
		w.n += n
		return
	}
	w.encode(e)
}

// encode runs e.EncodeWire on a Writer sharing w's buffer. Handing the
// interface call a copy keeps w itself from escaping, so the counting Writer
// Size puts on the stack (it never gets here) stays there and sizing
// allocates nothing.
func (w *Writer) encode(e Encoder) {
	sub := &Writer{buf: w.buf}
	e.EncodeWire(sub)
	w.buf = sub.buf
}

// Reader decodes values from a byte slice. Reader records the first error it
// encounters; once an error occurs every subsequent read returns zero values,
// so call sites can decode a whole structure and check Err once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many undecoded bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish returns an error if decoding failed or if any bytes remain.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, r.Remaining())
	}
	return nil
}

// Fail records err unless an error is already recorded: for decoders that
// reject a value the format itself allows (an unknown type tag, say).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.Fail(io.ErrUnexpectedEOF)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Uint8 decodes a single byte.
func (r *Reader) Uint8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool decodes a single byte as a boolean. Only 0 and 1 are accepted:
// booleans have exactly one encoding each, like every other construct here,
// so a decoded-then-reencoded message always reproduces its original bytes
// (FuzzBlockWire caught the previous any-nonzero reading violating that).
func (r *Reader) Bool() bool {
	b := r.Uint8()
	if r.err == nil && b > 1 {
		r.Fail(fmt.Errorf("%w: boolean byte %#x", ErrNonCanonical, b))
	}
	return b == 1
}

// Uint16 decodes a little-endian 16-bit integer.
func (r *Reader) Uint16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// Uint32 decodes a little-endian 32-bit integer.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Uint64 decodes a little-endian 64-bit integer.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 decodes a little-endian 64-bit signed integer.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// VarInt decodes a canonical CompactSize integer.
func (r *Reader) VarInt() uint64 {
	tag := r.Uint8()
	if r.err != nil {
		return 0
	}
	switch tag {
	case 0xfd:
		v := r.Uint16()
		if r.err == nil && v < 0xfd {
			r.Fail(ErrNonCanonical)
		}
		return uint64(v)
	case 0xfe:
		v := r.Uint32()
		if r.err == nil && v <= math.MaxUint16 {
			r.Fail(ErrNonCanonical)
		}
		return uint64(v)
	case 0xff:
		v := r.Uint64()
		if r.err == nil && v <= math.MaxUint32 {
			r.Fail(ErrNonCanonical)
		}
		return v
	default:
		return uint64(tag)
	}
}

// Length decodes a CompactSize used as a length and bounds it by max.
func (r *Reader) Length(max uint64) int {
	v := r.VarInt()
	if r.err != nil {
		return 0
	}
	if v > max {
		r.Fail(fmt.Errorf("%w: length %d > %d", ErrTooLarge, v, max))
		return 0
	}
	return int(v)
}

// Count decodes a list's CompactSize element count, bounded by max and by
// the bytes left: every element takes at least minSize bytes, so a count the
// rest of the buffer cannot hold fails here, before the caller allocates for
// it.
func (r *Reader) Count(max uint64, minSize int) int {
	n := r.Length(max)
	if n*minSize > r.Remaining() {
		r.Fail(fmt.Errorf("%w: %d elements of at least %d bytes in %d", io.ErrUnexpectedEOF, n, minSize, r.Remaining()))
		return 0
	}
	return n
}

// Bytes32 decodes a fixed 32-byte array.
func (r *Reader) Bytes32() (v [32]byte) {
	b := r.take(32)
	if b != nil {
		copy(v[:], b)
	}
	return v
}

// VarBytes decodes a length-prefixed byte string of at most max bytes. The
// returned slice is a copy and remains valid after the Reader's buffer is
// reused.
func (r *Reader) VarBytes(max uint64) []byte {
	n := r.Length(max)
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Raw decodes len(dst) bytes with no length prefix into dst, the mirror of
// Writer.Raw. On error dst is left as it was.
func (r *Reader) Raw(dst []byte) { copy(dst, r.take(len(dst))) }

// VarDecode decodes a length-prefixed encoding of at most max bytes into d —
// a list member written as VarInt(size) then EncodeWire — straight from the
// Reader's buffer, without copying the member out first. d must consume
// exactly the prefixed length, just as Decode requires of a whole buffer.
//
// Nothing here copies, so the rule every DecodeWire in this repository
// follows is what makes it safe to reuse the buffer afterwards: a decoder
// copies whatever it keeps (Raw, VarBytes and Bytes32 all do) and retains no
// slice of the buffer.
func (r *Reader) VarDecode(max uint64, d Decoder) {
	n := r.Length(max)
	if r.err != nil {
		return
	}
	if r.Remaining() < n {
		r.Fail(io.ErrUnexpectedEOF)
		return
	}
	whole, end := r.buf, r.off+n
	r.buf = whole[:end] // the member's bytes are all d can see
	d.DecodeWire(r)
	if r.err == nil && r.off != end {
		r.Fail(fmt.Errorf("%w: %d bytes", ErrTrailing, end-r.off))
	}
	r.buf = whole
}

// Encoder is implemented by values that serialize themselves to a Writer.
type Encoder interface {
	EncodeWire(w *Writer)
}

// Decoder is implemented by values that deserialize themselves from a Reader.
type Decoder interface {
	DecodeWire(r *Reader)
}

// Sized is an Encoder that memoizes its encoded size (blocks and
// transactions), so enclosing encodings count it without walking it.
type Sized interface {
	Encoder
	WireSize() int
}

// Size returns the number of bytes Encode(e) would produce, without
// producing them: e.EncodeWire runs against a counting Writer.
func Size(e Encoder) int {
	w := Writer{counting: true}
	e.EncodeWire(&w)
	return w.n
}

// Encode serializes e into a fresh byte slice allocated once at its exact
// size (len == cap), so nothing is regrown and no slack is retained by
// callers that keep the result.
func Encode(e Encoder) []byte {
	// One Writer serves both passes: it escapes through the interface call,
	// so a second one would be a second allocation.
	w := Writer{counting: true}
	e.EncodeWire(&w)
	w = Writer{buf: make([]byte, 0, w.n)}
	e.EncodeWire(&w)
	return w.buf
}

// Decode deserializes b into d, requiring that all bytes are consumed.
func Decode(b []byte, d Decoder) error {
	r := NewReader(b)
	d.DecodeWire(r)
	return r.Finish()
}
