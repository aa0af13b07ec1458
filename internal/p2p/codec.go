// Package p2p runs protocol nodes over real TCP connections: framed wire
// messages, a version/verack handshake, per-connection reader and writer
// goroutines, and a single-threaded event loop that preserves the node.Env
// execution model. The same bitcoin/core node code that runs on the
// discrete-event simulator runs here unchanged — the repository's analogue
// of the paper's unchanged-client methodology (§7).
//
// Each connection's reader reads every frame into one reused buffer and
// decodes it — batch members straight from the frame — before reading the
// next; decoded messages own their bytes, so nothing posted to the event
// loop aliases the buffer.
package p2p

import (
	"sync"

	"bitcoinng/internal/node"
	"bitcoinng/internal/wire"
)

// protocolVersion is the handshake version; peers must match exactly.
const protocolVersion uint32 = 1

// versionPayload is the handshake body.
type versionPayload struct {
	Version uint32
	NodeID  uint64
	Genesis [32]byte
}

func (v *versionPayload) EncodeWire(w *wire.Writer) {
	w.Uint32(v.Version)
	w.Uint64(v.NodeID)
	w.Bytes32(v.Genesis)
}

func (v *versionPayload) DecodeWire(r *wire.Reader) {
	v.Version = r.Uint32()
	v.NodeID = r.Uint64()
	v.Genesis = r.Bytes32()
}

// framePool recycles outbound frames: Runtime.Send encodes into one, and the
// peer returns it once the frame is written, dropped or abandoned by a
// closing connection.
var framePool = sync.Pool{New: func() any { return new(wire.Frame) }}

// encodeFrame frames a gossip message for the TCP transport in a pooled
// buffer; release it with framePool.Put.
func encodeFrame(m node.Message) *wire.Frame {
	f := framePool.Get().(*wire.Frame)
	f.Encode(m.Type(), m)
	return f
}

// decodeMessage parses a framed gossip message through node's constructor
// table.
func decodeMessage(env *wire.Envelope) (node.Message, error) {
	m, err := node.NewMessage(env.Type)
	if err != nil {
		return nil, err
	}
	if err := wire.Decode(env.Payload, m); err != nil {
		return nil, err
	}
	return m, nil
}
