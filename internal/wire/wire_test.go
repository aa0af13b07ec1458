package wire

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTripFixed(t *testing.T) {
	w := NewWriter(0)
	w.Uint8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.Uint16(0x1234)
	w.Uint32(0xdeadbeef)
	w.Uint64(0x0123456789abcdef)
	w.Int64(-42)
	var h [32]byte
	for i := range h {
		h[i] = byte(i)
	}
	w.Bytes32(h)
	w.VarBytes([]byte("hello"))
	w.Raw([]byte{9, 9})

	r := NewReader(w.Bytes())
	if got := r.Uint8(); got != 0xab {
		t.Errorf("Uint8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Errorf("Bool round trip failed")
	}
	if got := r.Uint16(); got != 0x1234 {
		t.Errorf("Uint16 = %#x", got)
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 0x0123456789abcdef {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := r.Int64(); got != -42 {
		t.Errorf("Int64 = %d", got)
	}
	if got := r.Bytes32(); got != h {
		t.Errorf("Bytes32 = %x", got)
	}
	if got := r.VarBytes(100); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("VarBytes = %q", got)
	}
	var raw [2]byte
	if r.Raw(raw[:]); raw != [2]byte{9, 9} {
		t.Errorf("Raw = %v", raw)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestVarIntBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		size int
	}{
		{0, 1}, {1, 1}, {0xfc, 1},
		{0xfd, 3}, {0xffff, 3},
		{0x10000, 5}, {0xffffffff, 5},
		{0x100000000, 9}, {math.MaxUint64, 9},
	}
	for _, c := range cases {
		w := NewWriter(0)
		w.VarInt(c.v)
		if w.Len() != c.size {
			t.Errorf("VarInt(%d) encoded to %d bytes, want %d", c.v, w.Len(), c.size)
		}
		r := NewReader(w.Bytes())
		if got := r.VarInt(); got != c.v {
			t.Errorf("VarInt(%d) decoded to %d", c.v, got)
		}
		if err := r.Finish(); err != nil {
			t.Errorf("VarInt(%d) Finish: %v", c.v, err)
		}
	}
}

func TestVarIntRoundTripProperty(t *testing.T) {
	f := func(v uint64) bool {
		w := NewWriter(0)
		w.VarInt(v)
		r := NewReader(w.Bytes())
		got := r.VarInt()
		return got == v && r.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarBytesRoundTripProperty(t *testing.T) {
	f := func(b []byte) bool {
		w := NewWriter(0)
		w.VarBytes(b)
		r := NewReader(w.Bytes())
		got := r.VarBytes(uint64(len(b)) + 1)
		return bytes.Equal(got, b) && r.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNonCanonicalVarIntRejected(t *testing.T) {
	// 0xfd prefix encoding a value that fits in one byte.
	cases := [][]byte{
		{0xfd, 0x01, 0x00},                               // 1 as 3 bytes
		{0xfe, 0xff, 0xff, 0x00, 0x00},                   // 0xffff as 5 bytes
		{0xff, 0x01, 0x00, 0x00, 0x00, 0, 0, 0, 0},       // 1 as 9 bytes
		{0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0, 0, 0x00}, // uint32 max as 9 bytes
	}
	for _, b := range cases {
		r := NewReader(b)
		r.VarInt()
		if r.Err() == nil {
			t.Errorf("VarInt(% x): non-canonical encoding accepted", b)
		}
	}
}

func TestReaderShortInput(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Uint32()
	if r.Err() != io.ErrUnexpectedEOF {
		t.Errorf("err = %v, want unexpected EOF", r.Err())
	}
	// Subsequent reads keep returning zero values without panicking.
	if got := r.Uint64(); got != 0 {
		t.Errorf("read after error = %d, want 0", got)
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	w := NewWriter(0)
	w.Uint8(7)
	w.Uint8(8)
	r := NewReader(w.Bytes())
	r.Uint8()
	if err := r.Finish(); err == nil {
		t.Fatal("Finish accepted trailing bytes")
	}
}

func TestLengthBound(t *testing.T) {
	w := NewWriter(0)
	w.VarInt(1000)
	r := NewReader(w.Bytes())
	r.Length(999)
	if r.Err() == nil {
		t.Fatal("Length accepted value above bound")
	}
}

type testMsg struct {
	A uint64
	B []byte
}

func (m *testMsg) EncodeWire(w *Writer) {
	w.Uint64(m.A)
	w.VarBytes(m.B)
}

func (m *testMsg) DecodeWire(r *Reader) {
	m.A = r.Uint64()
	m.B = r.VarBytes(MaxMessageSize)
}

// WireSize makes testMsg Sized; it is computed, not memoized.
func (m *testMsg) WireSize() int { return Size(m) }

// TestCountBoundsByRemaining: a list count decodes only if the bytes left can
// hold that many elements of the smallest size, so a short frame claiming a
// long list fails before its decoder allocates.
func TestCountBoundsByRemaining(t *testing.T) {
	for _, c := range []struct {
		buf     []byte
		max     uint64
		minSize int
		want    int
		ok      bool
	}{
		{[]byte{3, 0, 0, 0, 0, 0, 0}, 10, 2, 3, true},
		{[]byte{3, 0, 0, 0, 0, 0}, 10, 2, 0, false},
		{[]byte{0xfd, 0xff, 0xff}, 1 << 16, 1, 0, false},
		{[]byte{11}, 10, 0, 0, false},
		{[]byte{0}, 10, 33, 0, true},
	} {
		r := NewReader(c.buf)
		if got := r.Count(c.max, c.minSize); got != c.want || (r.Err() == nil) != c.ok {
			t.Errorf("Count(%d, %d) over %x = %d, err %v", c.max, c.minSize, c.buf, got, r.Err())
		}
	}
}

func TestEncodeDecodeHelpers(t *testing.T) {
	in := &testMsg{A: 77, B: []byte("payload")}
	b := Encode(in)
	var out testMsg
	if err := Decode(b, &out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.A != in.A || !bytes.Equal(out.B, in.B) {
		t.Errorf("round trip mismatch: %+v != %+v", out, in)
	}
	// Extra byte must be rejected.
	if err := Decode(append(b, 0), &out); err == nil {
		t.Error("Decode accepted trailing byte")
	}
}

// TestVarDecodeBoundsTheMember: a length-prefixed member decodes in place
// only if it consumes exactly its prefix — a decoder may neither stop short
// nor read on into the next member — and what it keeps is its own copy.
func TestVarDecodeBoundsTheMember(t *testing.T) {
	member := func(prefix int, m *testMsg) []byte {
		w := NewWriter(0)
		w.VarInt(uint64(prefix))
		m.EncodeWire(w)
		w.Uint8(0xee) // the next member's first byte
		return w.Bytes()
	}
	in := &testMsg{A: 5, B: []byte("kept")}
	size := Size(in)

	buf := member(size, in)
	r := NewReader(buf)
	var out testMsg
	r.VarDecode(64, &out)
	if r.Err() != nil || out.A != in.A || !bytes.Equal(out.B, in.B) || r.Uint8() != 0xee || r.Finish() != nil {
		t.Fatalf("exact member: err %v, got %+v", r.Err(), out)
	}
	clear(buf)
	if !bytes.Equal(out.B, []byte("kept")) {
		t.Error("the decoded member aliases the reader's buffer")
	}

	for _, c := range []struct {
		name   string
		prefix int
		max    uint64
	}{
		{"prefix longer than the member", size + 1, 64},
		{"prefix shorter than the member", size - 1, 64},
		{"prefix past the buffer", size + 10, 64},
		{"prefix above max", size, uint64(size - 1)},
	} {
		r := NewReader(member(c.prefix, in))
		r.VarDecode(c.max, new(testMsg))
		if r.Err() == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Envelope{Type: MsgBlock, Payload: []byte("block bytes")}
	if _, err := in.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	var out Envelope
	if _, err := out.ReadFrom(&buf); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if out.Type != in.Type || !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("round trip mismatch: %+v != %+v", out, in)
	}
}

// frames returns the framed encodings of the given envelopes, back to back.
func frames(t testing.TB, envs ...*Envelope) []byte {
	var buf bytes.Buffer
	for _, e := range envs {
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
	}
	return buf.Bytes()
}

// TestEnvelopeReadFromReusesBuffer: consecutive frames read through one
// Envelope land in one buffer — the second overwrites the first, which is
// why a reader decodes each frame before reading the next — and once the
// buffer has grown to the largest frame, reading allocates nothing.
func TestEnvelopeReadFromReusesBuffer(t *testing.T) {
	big := &Envelope{Type: MsgBlock, Payload: bytes.Repeat([]byte{0xb1}, 3000)}
	small := &Envelope{Type: MsgInv, Payload: []byte("inv")}
	stream := bytes.NewReader(frames(t, big, small))

	var env Envelope
	if _, err := env.ReadFrom(stream); err != nil || env.Type != MsgBlock || !bytes.Equal(env.Payload, big.Payload) {
		t.Fatalf("first frame: %v %v (%d bytes)", err, env.Type, len(env.Payload))
	}
	first := env.Payload
	if _, err := env.ReadFrom(stream); err != nil || env.Type != MsgInv || !bytes.Equal(env.Payload, small.Payload) {
		t.Fatalf("second frame: %v %v %q", err, env.Type, env.Payload)
	}
	if &first[0] != &env.Payload[0] {
		t.Error("the second frame was read into a fresh buffer")
	}
	if _, err := env.ReadFrom(stream); err != io.EOF || env.Type != MsgInvalid || len(env.Payload) != 0 {
		t.Errorf("end of stream: err %v, type %v, %d payload bytes", err, env.Type, len(env.Payload))
	}

	raw := frames(t, small, big)
	allocs := testing.AllocsPerRun(100, func() {
		stream.Reset(raw)
		for i := 0; i < 2; i++ {
			if _, err := env.ReadFrom(stream); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state frame reads allocate %.1f times per two frames, want 0", allocs)
	}
}

func TestEnvelopeRejectsCorruption(t *testing.T) {
	frame := func() []byte { return frames(t, &Envelope{Type: MsgInv, Payload: []byte("abcdef")}) }
	// One Envelope reads every case: a rejected frame must not leave a
	// message behind for the next read to be confused with.
	var env Envelope
	reject := func(what string, b []byte) {
		t.Helper()
		if _, err := env.ReadFrom(bytes.NewReader(b)); err == nil || env.Type != MsgInvalid || len(env.Payload) != 0 {
			t.Errorf("accepted %s (err %v, type %v)", what, err, env.Type)
		}
	}

	b := frame()
	b[0] ^= 0xff
	reject("bad magic", b)

	b = frame()
	b[4] = 0xee
	reject("bad message type", b)

	b = frame()
	b[len(b)-1] ^= 0x01 // the checksum must catch it
	reject("corrupted payload", b)

	b = frame()
	reject("truncated frame", b[:len(b)-2])
}

func TestEnvelopeRejectsOversize(t *testing.T) {
	e := &Envelope{Type: MsgBlock, Payload: make([]byte, MaxMessageSize+1)}
	if _, err := e.WriteTo(io.Discard); err == nil {
		t.Error("WriteTo accepted oversized payload")
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgMicroBlock.String() != "microblock" {
		t.Errorf("MsgMicroBlock.String() = %q", MsgMicroBlock.String())
	}
	if MsgType(200).Valid() {
		t.Error("MsgType(200) reported valid")
	}
	// Numbers of retired types stay reserved, so later ones never move.
	for _, reserved := range []MsgType{9, 10} {
		if reserved.Valid() || reserved.String() != fmt.Sprintf("msgtype(%d)", reserved) {
			t.Errorf("reserved type %d: valid %v, named %q", reserved, reserved.Valid(), reserved.String())
		}
	}
	if MsgTx != 8 || MsgTxBatch != 11 || MsgBlockBatch != 13 {
		t.Errorf("frame numbers moved: tx %d, txbatch %d, blockbatch %d", MsgTx, MsgTxBatch, MsgBlockBatch)
	}
	if MsgCompactBlock != 14 || MsgGetBlockTxn != 15 || MsgBlockTxn != 16 {
		t.Errorf("frame numbers moved: cmpctblock %d, getblocktxn %d, blocktxn %d", MsgCompactBlock, MsgGetBlockTxn, MsgBlockTxn)
	}
}

// everyMethod writes through each Writer method once per element, with
// values on both sides of every CompactSize boundary.
type everyMethod []uint64

func (m everyMethod) EncodeWire(w *Writer) {
	for _, v := range m {
		w.Uint8(uint8(v))
		w.Bool(v&1 == 1)
		w.Uint16(uint16(v))
		w.Uint32(uint32(v))
		w.Uint64(v)
		w.Int64(int64(v))
		w.VarInt(v)
		w.Bytes32([32]byte{byte(v)})
		b := make([]byte, v%70000)
		w.VarBytes(b)
		w.Raw(b[:len(b)/2])
		w.Embed(&testMsg{A: v, B: b[:len(b)/3]})
		w.VarEncode(&testMsg{A: v, B: b[:len(b)/4]})
	}
}

// TestSizeCountsWhatEncodeWrites: a counting Writer reports, method by
// method, exactly the bytes an encoding Writer appends, and Encode allocates
// its result at that size.
func TestSizeCountsWhatEncodeWrites(t *testing.T) {
	cases := []everyMethod{
		nil,
		{0},
		{0xfc, 0xfd, 0xffff, 0x10000, math.MaxUint32, math.MaxUint32 + 1, math.MaxUint64},
	}
	for _, m := range cases {
		b := Encode(m)
		if got := Size(m); got != len(b) {
			t.Errorf("Size = %d, Encode wrote %d bytes", got, len(b))
		}
		if cap(b) != len(b) {
			t.Errorf("Encode returned cap %d for %d bytes", cap(b), len(b))
		}
		w := NewWriter(0)
		m.EncodeWire(w)
		if !bytes.Equal(w.Bytes(), b) || w.Len() != len(b) {
			t.Errorf("Encode and a plain Writer disagree (%d vs %d bytes)", len(b), w.Len())
		}
	}
	if err := quick.Check(func(vs []uint64) bool {
		m := everyMethod(vs)
		return Size(m) == len(Encode(m))
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
