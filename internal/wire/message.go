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
	MsgInvalid    MsgType = iota // never sent
	MsgVersion                   // p2p handshake
	MsgVerAck                    // p2p handshake acknowledgment
	MsgInv                       // inventory announcement (block hashes)
	MsgGetData                   // request for announced inventory
	MsgBlock                     // Bitcoin block
	MsgKeyBlock                  // Bitcoin-NG key block
	MsgMicroBlock                // Bitcoin-NG microblock
	MsgTx                        // loose transaction
	//nglint:allow parity reserved wire-format slot: the identifiers are part of the numbered frame layout, but no transport implements liveness probes yet
	MsgPing // liveness probe
	//nglint:allow parity reserved wire-format slot: the identifiers are part of the numbered frame layout, but no transport implements liveness probes yet
	MsgPong       // liveness response
	MsgTxBatch    // batched loose-transaction relay
	MsgGetBlocks  // locator-based catch-up sync request
	MsgBlockBatch // bounded batch of main-chain blocks (sync response)
	msgSentinel   // one past the last valid type
)

var msgTypeNames = [...]string{
	MsgInvalid:    "invalid",
	MsgVersion:    "version",
	MsgVerAck:     "verack",
	MsgInv:        "inv",
	MsgGetData:    "getdata",
	MsgBlock:      "block",
	MsgKeyBlock:   "keyblock",
	MsgMicroBlock: "microblock",
	MsgTx:         "tx",
	MsgPing:       "ping",
	MsgPong:       "pong",
	MsgTxBatch:    "txbatch",
	MsgGetBlocks:  "getblocks",
	MsgBlockBatch: "blockbatch",
}

// String returns the canonical lower-case message name.
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// Valid reports whether t identifies a known message type.
func (t MsgType) Valid() bool { return t > MsgInvalid && t < msgSentinel }

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
	if !e.Type.Valid() {
		return 0, fmt.Errorf("%w: %d", ErrBadMsgType, e.Type)
	}
	if len(e.Payload) > MaxMessageSize {
		return 0, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, len(e.Payload))
	}
	hdr := make([]byte, envelopeHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], Magic)
	hdr[4] = byte(e.Type)
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(e.Payload)))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(e.Payload))
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, err
	}
	n, err = w.Write(e.Payload)
	return total + int64(n), err
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
