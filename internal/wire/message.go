package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// MsgType identifies a protocol message inside an Envelope. The protocol
// packages register concrete payload types against these identifiers.
type MsgType uint8

// Message type identifiers. The numeric values are part of the wire format.
const (
	MsgInvalid      MsgType = iota // never sent
	MsgVersion                     // p2p handshake
	MsgVerAck                      // p2p handshake acknowledgment
	MsgInv                         // inventory announcement (block hashes)
	MsgGetData                     // request for announced inventory
	MsgBlock                       // Bitcoin block
	MsgKeyBlock                    // Bitcoin-NG key block
	MsgMicroBlock                  // Bitcoin-NG microblock
	MsgTx                          // loose transaction
	_                              // 9: reserved, so later numbers never move
	_                              // 10: reserved
	MsgTxBatch                     // batched loose-transaction relay
	MsgGetBlocks                   // locator-based catch-up sync request
	MsgBlockBatch                  // bounded batch of main-chain blocks (sync response)
	MsgCompactBlock                // microblock as header and transaction IDs
	MsgGetBlockTxn                 // request for a compact block's missing transactions
	MsgBlockTxn                    // the requested transactions
	msgSentinel                    // one past the last valid type
)

var msgTypeNames = [...]string{
	MsgInvalid:      "invalid",
	MsgVersion:      "version",
	MsgVerAck:       "verack",
	MsgInv:          "inv",
	MsgGetData:      "getdata",
	MsgBlock:        "block",
	MsgKeyBlock:     "keyblock",
	MsgMicroBlock:   "microblock",
	MsgTx:           "tx",
	MsgTxBatch:      "txbatch",
	MsgGetBlocks:    "getblocks",
	MsgBlockBatch:   "blockbatch",
	MsgCompactBlock: "cmpctblock",
	MsgGetBlockTxn:  "getblocktxn",
	MsgBlockTxn:     "blocktxn",
}

// String returns the canonical lower-case message name.
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// Valid reports whether t identifies a known message type; MsgInvalid and
// the reserved numbers are not.
func (t MsgType) Valid() bool { return t < msgSentinel && msgTypeNames[t] != "" && t != MsgInvalid }

// Envelope frames a message payload for stream transports. The frame layout
// is:
//
//	magic   uint32  // network identifier, rejects cross-network connects
//	type    uint8
//	length  uint32  // payload length, <= MaxMessageSize
//	crc32   uint32  // IEEE CRC over the payload
//	payload [length]byte
//
// The discrete-event simulator does not use Envelope (it passes decoded
// messages in memory and charges the network model with WireSize); only the
// TCP transport does.
type Envelope struct {
	Type    MsgType
	Payload []byte
}

// Magic identifies this network on the wire ("NG06" little-endian).
const Magic uint32 = 0x3630474e

const envelopeHeaderSize = 4 + 1 + 4 + 4

// Framing errors.
var (
	ErrBadMagic    = errors.New("wire: bad network magic")
	ErrBadChecksum = errors.New("wire: payload checksum mismatch")
	ErrBadMsgType  = errors.New("wire: unknown message type")
)

// WriteTo serializes the framed message to w.
func (e *Envelope) WriteTo(w io.Writer) (int64, error) {
	if err := checkFrame(e.Type, e.Payload); err != nil {
		return 0, err
	}
	hdr := make([]byte, envelopeHeaderSize)
	putHeader(hdr, e.Type, e.Payload)
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, err
	}
	n, err = w.Write(e.Payload)
	return total + int64(n), err
}

// checkFrame refuses what no peer would read back: an unknown type or an
// oversized payload.
func checkFrame(t MsgType, payload []byte) error {
	if !t.Valid() {
		return fmt.Errorf("%w: %d", ErrBadMsgType, t)
	}
	if len(payload) > MaxMessageSize {
		return fmt.Errorf("%w: payload %d bytes", ErrTooLarge, len(payload))
	}
	return nil
}

// putHeader writes the frame header of a payload into hdr.
func putHeader(hdr []byte, t MsgType, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], Magic)
	hdr[4] = byte(t)
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(payload))
}

// Frame is an outbound message framed in a buffer it keeps: header and
// payload together, written with one call and laid out as Envelope's. Encode
// reuses the buffer, so a sender that recycles its Frames stops allocating
// once they have grown to its largest message.
type Frame struct {
	typ MsgType
	w   Writer
}

// Encode frames e as a message of type t, replacing the previous contents.
// Like the package's Encode it counts the payload first, so a buffer that is
// too small grows once, to the exact size.
func (f *Frame) Encode(t MsgType, e Encoder) {
	f.typ = t
	f.w = Writer{buf: f.w.buf[:0], counting: true}
	e.EncodeWire(&f.w)
	size := envelopeHeaderSize + f.w.n
	f.w = Writer{buf: slices.Grow(f.w.buf, size)[:envelopeHeaderSize]}
	e.EncodeWire(&f.w)
	putHeader(f.w.buf[:envelopeHeaderSize], t, f.w.buf[envelopeHeaderSize:])
}

// WriteTo writes the frame to w.
func (f *Frame) WriteTo(w io.Writer) (int64, error) {
	if err := checkFrame(f.typ, f.w.buf[envelopeHeaderSize:]); err != nil {
		return 0, err
	}
	n, err := w.Write(f.w.buf)
	return int64(n), err
}

// ReadFrom reads one framed message from r into e, validating magic, type,
// length and checksum; it returns the bytes read. Header and payload are read
// into e.Payload's backing array, which grows only when a frame outgrows it,
// so a connection that keeps one Envelope reads every frame into one buffer.
// The price is aliasing: the next ReadFrom overwrites this frame's payload, so
// decode it first (decoders copy what they keep; see Reader.VarDecode). On
// error e holds no message, only the buffer for the next call.
func (e *Envelope) ReadFrom(r io.Reader) (int64, error) {
	buf := slices.Grow(e.Payload[:0], envelopeHeaderSize)
	e.Type, e.Payload = MsgInvalid, buf[:0]
	hdr := buf[:envelopeHeaderSize]
	n, err := io.ReadFull(r, hdr)
	if err != nil {
		return int64(n), err
	}
	if got := binary.LittleEndian.Uint32(hdr[0:4]); got != Magic {
		return int64(n), fmt.Errorf("%w: %#x", ErrBadMagic, got)
	}
	typ := MsgType(hdr[4])
	if !typ.Valid() {
		return int64(n), fmt.Errorf("%w: %d", ErrBadMsgType, hdr[4])
	}
	length := binary.LittleEndian.Uint32(hdr[5:9])
	if length > MaxMessageSize {
		return int64(n), fmt.Errorf("%w: payload %d bytes", ErrTooLarge, length)
	}
	want := binary.LittleEndian.Uint32(hdr[9:13])
	// The header is parsed, so the payload may overwrite it.
	buf = slices.Grow(buf[:0], int(length))
	e.Payload = buf[:0]
	m, err := io.ReadFull(r, buf[:length])
	if err != nil {
		return int64(n + m), err
	}
	if crc32.ChecksumIEEE(buf[:length]) != want {
		return int64(n + m), ErrBadChecksum
	}
	e.Type, e.Payload = typ, buf[:length]
	return int64(n + m), nil
}
