package wire

import (
	"bytes"
	"testing"
)

// FuzzEnvelope round-trips the stream framing: any byte string that
// Envelope.ReadFrom accepts must re-encode (WriteTo) to bytes that decode to
// the identical envelope, and the re-encoding must equal the consumed input
// prefix — the header has exactly one canonical form, so a hash or
// checksum computed by a relay hop can never disagree with the sender's.
//
//	go test -fuzz=FuzzEnvelope -fuzztime=30s ./internal/wire
func FuzzEnvelope(f *testing.F) {
	valid := &Envelope{Type: MsgPing, Payload: []byte("hello")}
	var buf bytes.Buffer
	if _, err := valid.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x4e, 0x47, 0x30, 0x36, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var env Envelope
		n, err := env.ReadFrom(bytes.NewReader(raw))
		if err != nil {
			return // rejection is fine; silent mutation is not
		}
		var out bytes.Buffer
		if _, err := env.WriteTo(&out); err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v", err)
		}
		consumed := envelopeHeaderSize + len(env.Payload)
		if n != int64(consumed) {
			t.Fatalf("ReadFrom reported %d bytes, consumed %d", n, consumed)
		}
		if !bytes.Equal(out.Bytes(), raw[:consumed]) {
			t.Fatalf("re-encoding differs from accepted input:\n in: %x\nout: %x",
				raw[:consumed], out.Bytes())
		}
		var again Envelope
		_, err = again.ReadFrom(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded envelope rejected: %v", err)
		}
		if again.Type != env.Type || !bytes.Equal(again.Payload, env.Payload) {
			t.Fatal("envelope mutated across a round trip")
		}
	})
}

// TestBoolStrict pins the FuzzBlockWire finding: booleans decode only from
// 0 or 1; any other byte is non-canonical and must fail the whole message,
// or a relay hop would re-encode a block to different bytes than it
// received.
func TestBoolStrict(t *testing.T) {
	for b, want := range map[byte]bool{0: false, 1: true} {
		r := NewReader([]byte{b})
		if got := r.Bool(); got != want || r.Finish() != nil {
			t.Errorf("Bool(%#x) = %v, err %v", b, got, r.Finish())
		}
	}
	for _, b := range []byte{2, 0x30, 0xff} {
		r := NewReader([]byte{b})
		r.Bool()
		if r.Err() == nil {
			t.Errorf("Bool(%#x) accepted", b)
		}
	}
}

// FuzzVarInt pins the CompactSize canonicality contract: any input the
// reader accepts as a VarInt re-encodes to exactly the consumed bytes
// (shortest form), and VarBytes never over- or under-consumes. Block hashes
// are computed over serializations containing these, so a second valid
// encoding of the same value would be a consensus split.
//
//	go test -fuzz=FuzzVarInt -fuzztime=30s ./internal/wire
func FuzzVarInt(f *testing.F) {
	f.Add([]byte{0x05})
	f.Add([]byte{0xfd, 0xfd, 0x00})
	f.Add([]byte{0xfe, 0xff, 0xff, 0x00, 0x00})
	f.Add([]byte{0xff, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := NewReader(raw)
		v := r.VarInt()
		if r.Err() != nil {
			return
		}
		consumed := len(raw) - r.Remaining()
		w := NewWriter(9)
		w.VarInt(v)
		if !bytes.Equal(w.Bytes(), raw[:consumed]) {
			t.Fatalf("VarInt(%d): accepted %x, canonical %x", v, raw[:consumed], w.Bytes())
		}

		// VarBytes on the same input: on success the returned length must
		// match its prefix and consumption must be exact.
		r2 := NewReader(raw)
		b := r2.VarBytes(uint64(len(raw)))
		if r2.Err() != nil {
			return
		}
		if got := len(raw) - r2.Remaining(); got != int(v)+consumed {
			t.Fatalf("VarBytes consumed %d bytes, want %d", got, int(v)+consumed)
		}
		if uint64(len(b)) != v {
			t.Fatalf("VarBytes returned %d bytes under a %d prefix", len(b), v)
		}
	})
}
