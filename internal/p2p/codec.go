// Package p2p runs protocol nodes over real TCP connections: framed wire
// messages, a version/verack handshake, per-connection reader and writer
// goroutines, and a single-threaded event loop that preserves the node.Env
// execution model. The same bitcoin/core node code that runs on the
// discrete-event simulator runs here unchanged — the repository's analogue
// of the paper's unchanged-client methodology (§7).
package p2p

import (
	"fmt"

	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
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

// encodeInvItems serializes inv/getdata item lists.
func encodeInvItems(items []node.Inv) []byte {
	w := wire.NewWriter(1 + 33*len(items))
	w.VarInt(uint64(len(items)))
	for _, it := range items {
		w.Uint8(uint8(it.Type))
		w.Bytes32(it.Hash)
	}
	return w.Bytes()
}

func decodeInvItems(payload []byte) ([]node.Inv, error) {
	r := wire.NewReader(payload)
	n := r.Length(1 << 16)
	items := make([]node.Inv, 0, n)
	for i := 0; i < n; i++ {
		t := wire.MsgType(r.Uint8())
		h := r.Bytes32()
		items = append(items, node.Inv{Type: t, Hash: h})
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return items, nil
}

// encodeTxBatch serializes a txbatch: a CompactSize count followed by each
// transaction as VarBytes, so a corrupt member fails cleanly at its length
// prefix instead of desynchronizing the rest of the batch. Members are
// written in place behind their counted size; m.Size() (the framed size)
// covers the payload, so the buffer never regrows.
func encodeTxBatch(m *node.TxBatchMsg) []byte {
	w := wire.NewWriter(m.Size())
	w.VarInt(uint64(len(m.Txs)))
	for _, tx := range m.Txs {
		w.VarInt(uint64(tx.WireSize()))
		tx.EncodeWire(w)
	}
	return w.Bytes()
}

func decodeTxBatch(payload []byte) ([]*types.Transaction, error) {
	r := wire.NewReader(payload)
	n := r.Length(1 << 16)
	txs := make([]*types.Transaction, 0, n)
	for i := 0; i < n; i++ {
		raw := r.VarBytes(1 << 20)
		if r.Err() != nil {
			break
		}
		tx := new(types.Transaction)
		if err := wire.Decode(raw, tx); err != nil {
			return nil, err
		}
		txs = append(txs, tx)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return txs, nil
}

// encodeLocator serializes a getblocks locator: a CompactSize count followed
// by the block hashes, tip-first.
func encodeLocator(loc []node.BlockID) []byte {
	w := wire.NewWriter(1 + 32*len(loc))
	w.VarInt(uint64(len(loc)))
	for _, h := range loc {
		w.Bytes32(h)
	}
	return w.Bytes()
}

func decodeLocator(payload []byte) ([]node.BlockID, error) {
	r := wire.NewReader(payload)
	n := r.Length(1 << 16)
	loc := make([]node.BlockID, 0, n)
	for i := 0; i < n; i++ {
		loc = append(loc, r.Bytes32())
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return loc, nil
}

// encodeBlockBatch serializes a blockbatch: the More flag, a CompactSize
// count, then each block as its message type plus VarBytes payload — the
// per-member length prefix keeps one corrupt block from desynchronizing the
// rest of the frame. Like encodeTxBatch it writes members in place into a
// buffer sized once: m.Size() leaves out the per-block type byte but counts
// the 13-byte frame header, hence the + len(m.Blocks).
func encodeBlockBatch(m *node.BlockBatchMsg) []byte {
	w := wire.NewWriter(m.Size() + len(m.Blocks))
	w.Bool(m.More)
	w.VarInt(uint64(len(m.Blocks)))
	for _, b := range m.Blocks {
		w.Uint8(uint8(types.BlockMsgType(b)))
		w.VarInt(uint64(b.WireSize()))
		b.EncodeWire(w)
	}
	return w.Bytes()
}

func decodeBlockBatch(payload []byte) (*node.BlockBatchMsg, error) {
	r := wire.NewReader(payload)
	more := r.Bool()
	n := r.Length(1 << 16)
	m := &node.BlockBatchMsg{Blocks: make([]types.Block, 0, n), More: more}
	for i := 0; i < n; i++ {
		t := wire.MsgType(r.Uint8())
		raw := r.VarBytes(wire.MaxMessageSize)
		if r.Err() != nil {
			break
		}
		b, err := types.DecodeBlockMsg(t, raw)
		if err != nil {
			return nil, err
		}
		m.Blocks = append(m.Blocks, b)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// encodeMessage frames a gossip message for the TCP transport.
func encodeMessage(msg node.Message) (*wire.Envelope, error) {
	switch m := msg.(type) {
	case *node.InvMsg:
		return &wire.Envelope{Type: wire.MsgInv, Payload: encodeInvItems(m.Items)}, nil
	case *node.GetDataMsg:
		return &wire.Envelope{Type: wire.MsgGetData, Payload: encodeInvItems(m.Items)}, nil
	case *node.BlockMsg:
		return &wire.Envelope{Type: types.BlockMsgType(m.Block), Payload: wire.Encode(m.Block)}, nil
	case *node.TxMsg:
		return &wire.Envelope{Type: wire.MsgTx, Payload: wire.Encode(m.Tx)}, nil
	case *node.TxBatchMsg:
		return &wire.Envelope{Type: wire.MsgTxBatch, Payload: encodeTxBatch(m)}, nil
	case *node.GetBlocksMsg:
		return &wire.Envelope{Type: wire.MsgGetBlocks, Payload: encodeLocator(m.Locator)}, nil
	case *node.BlockBatchMsg:
		return &wire.Envelope{Type: wire.MsgBlockBatch, Payload: encodeBlockBatch(m)}, nil
	default:
		return nil, fmt.Errorf("p2p: cannot encode message type %T", msg)
	}
}

// decodeMessage parses a framed gossip message.
func decodeMessage(env *wire.Envelope) (node.Message, error) {
	switch env.Type {
	case wire.MsgInv:
		items, err := decodeInvItems(env.Payload)
		if err != nil {
			return nil, err
		}
		return &node.InvMsg{Items: items}, nil
	case wire.MsgGetData:
		items, err := decodeInvItems(env.Payload)
		if err != nil {
			return nil, err
		}
		return &node.GetDataMsg{Items: items}, nil
	case wire.MsgBlock, wire.MsgKeyBlock, wire.MsgMicroBlock:
		b, err := types.DecodeBlockMsg(env.Type, env.Payload)
		if err != nil {
			return nil, err
		}
		return &node.BlockMsg{Block: b}, nil
	case wire.MsgTx:
		tx := new(types.Transaction)
		if err := wire.Decode(env.Payload, tx); err != nil {
			return nil, err
		}
		return &node.TxMsg{Tx: tx}, nil
	case wire.MsgTxBatch:
		txs, err := decodeTxBatch(env.Payload)
		if err != nil {
			return nil, err
		}
		return &node.TxBatchMsg{Txs: txs}, nil
	case wire.MsgGetBlocks:
		loc, err := decodeLocator(env.Payload)
		if err != nil {
			return nil, err
		}
		return &node.GetBlocksMsg{Locator: loc}, nil
	case wire.MsgBlockBatch:
		return decodeBlockBatch(env.Payload)
	default:
		return nil, fmt.Errorf("p2p: cannot decode message type %v", env.Type)
	}
}
