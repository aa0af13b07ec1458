package node

import (
	"fmt"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
	"bitcoinng/internal/wire"
)

// BlockID identifies a block in gossip and metrics events.
type BlockID = crypto.Hash

// BlockInfo is the generation-time metadata the metrics registry keeps per
// block (the simulator's equivalent of the paper's instrumented logs).
type BlockInfo struct {
	ID       BlockID
	Parent   BlockID
	Kind     types.BlockKind
	Time     int64 // header timestamp, Unix nanos
	Size     int   // wire size in bytes
	Payload  int   // bytes of regular-transaction payload
	TxCount  int   // regular transactions carried
	Work     bool  // carries proof-of-work weight
	MinerID  int   // generating node
	LeaderID int   // for microblocks: the epoch leader (== MinerID)
}

// InfoFor builds BlockInfo for a freshly generated block.
func InfoFor(b types.Block, minerID int) BlockInfo {
	info := BlockInfo{
		ID:       b.Hash(),
		Parent:   b.PrevHash(),
		Kind:     b.Kind(),
		Time:     b.Time(),
		Size:     b.WireSize(),
		Work:     b.Kind() != types.KindMicro,
		MinerID:  minerID,
		LeaderID: minerID,
	}
	for _, tx := range b.Transactions() {
		if tx.Kind == types.TxRegular {
			info.TxCount++
			info.Payload += tx.WireSize()
		}
	}
	return info
}

// Message is a gossip-layer message: InvMsg, GetDataMsg, BlockMsg,
// CompactBlockMsg, GetBlockTxnMsg, BlockTxnMsg, TxMsg, TxBatchMsg,
// GetBlocksMsg or BlockBatchMsg. Each type is defined once, here:
// its EncodeWire/DecodeWire are the live wire format, Size is what that
// encoding frames to — the bytes the network model charges — and dispatch
// routes it to its handler, so a message without one does not compile.
// NewMessage is the table the live transport decodes through.
type Message interface {
	wire.Encoder
	wire.Decoder
	// Size returns the framed wire size in bytes.
	Size() int
	// Type returns the envelope message type.
	Type() wire.MsgType
	// dispatch hands the message to its handler.
	dispatch(g *Gossip, from int)
}

// envelopeOverhead is the framing cost per message (magic + type + length +
// checksum), mirroring wire.Envelope.
const envelopeOverhead = 13

// NewMessage returns an empty message of type t, ready for DecodeWire; an
// error for a type that frames no gossip message (the handshake's, the
// reserved and unknown ones).
func NewMessage(t wire.MsgType) (Message, error) {
	if int(t) < len(messages) && messages[t] != nil {
		return messages[t](), nil
	}
	return nil, fmt.Errorf("node: message type %v is not a gossip message", t)
}

// messages is the MsgType → constructor table.
var messages = [...]func() Message{
	wire.MsgInv:          func() Message { return new(InvMsg) },
	wire.MsgGetData:      func() Message { return new(GetDataMsg) },
	wire.MsgBlock:        func() Message { return &BlockMsg{Block: new(types.PowBlock)} },
	wire.MsgKeyBlock:     func() Message { return &BlockMsg{Block: new(types.KeyBlock)} },
	wire.MsgMicroBlock:   func() Message { return &BlockMsg{Block: new(types.MicroBlock)} },
	wire.MsgTx:           func() Message { return &TxMsg{Tx: new(types.Transaction)} },
	wire.MsgTxBatch:      func() Message { return new(TxBatchMsg) },
	wire.MsgGetBlocks:    func() Message { return new(GetBlocksMsg) },
	wire.MsgBlockBatch:   func() Message { return new(BlockBatchMsg) },
	wire.MsgCompactBlock: func() Message { return new(CompactBlockMsg) },
	wire.MsgGetBlockTxn:  func() Message { return new(GetBlockTxnMsg) },
	wire.MsgBlockTxn:     func() Message { return new(BlockTxnMsg) },
}

// Smallest encodings of list members, which bound a decoded count by the
// bytes left (wire.Reader.Count): an inv item is its type tag and hash; a
// batched block at least its type tag and length prefix; a batched
// transaction at least its length prefix and an empty transaction.
const (
	invItemSize   = 1 + crypto.HashSize
	minBlockEntry = 2
)

var minTxMember = 1 + wire.Size(new(types.Transaction))

// maxBlockTxs bounds a decoded compact block's transaction count, and with it
// every index list naming them: the most transactions a block that fits one
// frame can hold.
var maxBlockTxs = uint64(wire.MaxMessageSize / wire.Size(new(types.Transaction)))

// maxTxBatch bounds a decoded txbatch's count.
const maxTxBatch = 1 << 16

// Inv names one announced or requested block.
type Inv struct {
	Type wire.MsgType // MsgBlock, MsgKeyBlock, or MsgMicroBlock
	Hash BlockID
}

// InvMsg announces inventory to a peer ("Any miner may add a valid block to
// the chain by simply publishing it over an overlay network", §3 — relay is
// announce/request/deliver like the operational client's inv/getdata).
type InvMsg struct {
	Items []Inv
	one   [1]Inv // backs a single-item Items, so the message is one allocation
}

// newInvMsg returns a one-item inv in a single allocation.
func newInvMsg(inv Inv) *InvMsg {
	m := &InvMsg{one: [1]Inv{inv}}
	m.Items = m.one[:]
	return m
}

// EncodeWire implements wire.Encoder: a CompactSize count, then each item's
// type tag and hash.
func (m *InvMsg) EncodeWire(w *wire.Writer) {
	w.VarInt(uint64(len(m.Items)))
	for _, it := range m.Items {
		w.Uint8(uint8(it.Type))
		w.Bytes32(it.Hash)
	}
}

// DecodeWire implements wire.Decoder; a single item decodes inline.
func (m *InvMsg) DecodeWire(r *wire.Reader) {
	if n := r.Count(maxInvItems, invItemSize); n == 1 {
		m.Items = m.one[:]
	} else {
		m.Items = make([]Inv, n)
	}
	for i := range m.Items {
		m.Items[i].Type = wire.MsgType(r.Uint8())
		m.Items[i].Hash = r.Bytes32()
	}
}

// Size implements Message.
func (m *InvMsg) Size() int { return envelopeOverhead + wire.Size(m) }

// Type implements Message.
func (m *InvMsg) Type() wire.MsgType { return wire.MsgInv }

func (m *InvMsg) dispatch(g *Gossip, from int) { g.handleInv(from, m) }

// GetDataMsg requests previously announced inventory; it is framed as an
// InvMsg is.
type GetDataMsg struct {
	Items []Inv
	one   [1]Inv // InvMsg's layout, which the conversions below rely on
}

// newGetDataMsg returns a one-item getdata in a single allocation.
func newGetDataMsg(inv Inv) *GetDataMsg { return (*GetDataMsg)(newInvMsg(inv)) }

// EncodeWire implements wire.Encoder.
func (m *GetDataMsg) EncodeWire(w *wire.Writer) { (*InvMsg)(m).EncodeWire(w) }

// DecodeWire implements wire.Decoder.
func (m *GetDataMsg) DecodeWire(r *wire.Reader) { (*InvMsg)(m).DecodeWire(r) }

// Size implements Message.
func (m *GetDataMsg) Size() int { return envelopeOverhead + wire.Size(m) }

// Type implements Message.
func (m *GetDataMsg) Type() wire.MsgType { return wire.MsgGetData }

func (m *GetDataMsg) dispatch(g *Gossip, from int) { g.handleGetData(from, m) }

// BlockMsg delivers a full block; its message type names the block's kind.
type BlockMsg struct {
	Block types.Block
}

// EncodeWire implements wire.Encoder.
func (m *BlockMsg) EncodeWire(w *wire.Writer) { w.Embed(m.Block) }

// DecodeWire implements wire.Decoder into the block NewMessage chose.
func (m *BlockMsg) DecodeWire(r *wire.Reader) { m.Block.DecodeWire(r) }

// Size implements Message.
func (m *BlockMsg) Size() int { return envelopeOverhead + wire.Size(m) }

// Type implements Message.
func (m *BlockMsg) Type() wire.MsgType { return types.BlockMsgType(m.Block) }

func (m *BlockMsg) dispatch(g *Gossip, from int) { g.handleBlock(from, m) }

// CompactBlockMsg delivers a microblock in compact form, BIP 152's
// cmpctblock with full 32-byte IDs instead of salted short ones: the signed
// header and every transaction's ID in block order. A node that relays loose
// transactions asks for it with a MsgCompactBlock getdata item, fills the IDs
// from its pool and fetches every body its pool lacks with GetBlockTxnMsg.
type CompactBlockMsg struct {
	// Block is the microblock. A sender's is whole, and the simulator
	// delivers it as it is. A decoded one holds the header and a nil
	// transaction at every index until the receiver fills it.
	Block *types.MicroBlock
	// IDs names every transaction of a decoded Block. A sender leaves it
	// nil: its Block's transactions name themselves.
	IDs []crypto.Hash
}

// id returns the ID of the block's i-th transaction.
func (m *CompactBlockMsg) id(i int) crypto.Hash {
	if m.IDs != nil {
		return m.IDs[i]
	}
	return m.Block.Txs[i].ID()
}

// EncodeWire implements wire.Encoder: the header, a CompactSize count and
// the IDs.
func (m *CompactBlockMsg) EncodeWire(w *wire.Writer) {
	m.Block.Header.EncodeWire(w)
	w.VarInt(uint64(len(m.Block.Txs)))
	for i := range m.Block.Txs {
		w.Bytes32(m.id(i))
	}
}

// DecodeWire implements wire.Decoder.
func (m *CompactBlockMsg) DecodeWire(r *wire.Reader) {
	m.Block = new(types.MicroBlock)
	m.Block.Header.DecodeWire(r)
	m.IDs = make([]crypto.Hash, r.Count(maxBlockTxs, crypto.HashSize))
	for i := range m.IDs {
		m.IDs[i] = r.Bytes32()
	}
	m.Block.Txs = make([]*types.Transaction, len(m.IDs))
}

// Size implements Message.
func (m *CompactBlockMsg) Size() int { return envelopeOverhead + wire.Size(m) }

// Type implements Message.
func (m *CompactBlockMsg) Type() wire.MsgType { return wire.MsgCompactBlock }

func (m *CompactBlockMsg) dispatch(g *Gossip, from int) { g.handleCompactBlock(from, m) }

// GetBlockTxnMsg asks the sender of a compact block for the transactions at
// Indexes, the ones the requester's pool lacked (BIP 152's getblocktxn).
type GetBlockTxnMsg struct {
	Hash    BlockID
	Indexes []uint32
}

// EncodeWire implements wire.Encoder: the block hash, a CompactSize count,
// then each index as a CompactSize.
func (m *GetBlockTxnMsg) EncodeWire(w *wire.Writer) {
	w.Bytes32(m.Hash)
	w.VarInt(uint64(len(m.Indexes)))
	for _, i := range m.Indexes {
		w.VarInt(uint64(i))
	}
}

// DecodeWire implements wire.Decoder.
func (m *GetBlockTxnMsg) DecodeWire(r *wire.Reader) {
	m.Hash = r.Bytes32()
	m.Indexes = make([]uint32, r.Count(maxBlockTxs, 1))
	for i := range m.Indexes {
		m.Indexes[i] = uint32(r.Length(maxBlockTxs - 1))
	}
}

// Size implements Message.
func (m *GetBlockTxnMsg) Size() int { return envelopeOverhead + wire.Size(m) }

// Type implements Message.
func (m *GetBlockTxnMsg) Type() wire.MsgType { return wire.MsgGetBlockTxn }

func (m *GetBlockTxnMsg) dispatch(g *Gossip, from int) { g.handleGetBlockTxn(from, m) }

// BlockTxnMsg answers GetBlockTxnMsg with the requested transactions, in the
// order asked (BIP 152's blocktxn).
type BlockTxnMsg struct {
	Hash BlockID
	Txs  []*types.Transaction
}

// EncodeWire implements wire.Encoder: the block hash, a CompactSize count,
// then each transaction length-prefixed, as in a txbatch.
func (m *BlockTxnMsg) EncodeWire(w *wire.Writer) {
	w.Bytes32(m.Hash)
	w.VarInt(uint64(len(m.Txs)))
	for _, tx := range m.Txs {
		w.VarEncode(tx)
	}
}

// DecodeWire implements wire.Decoder, each member straight from the frame.
func (m *BlockTxnMsg) DecodeWire(r *wire.Reader) {
	m.Hash = r.Bytes32()
	m.Txs = make([]*types.Transaction, r.Count(maxBlockTxs, minTxMember))
	for i := range m.Txs {
		if r.Err() != nil {
			return
		}
		m.Txs[i] = new(types.Transaction)
		r.VarDecode(1<<20, m.Txs[i])
	}
}

// Size implements Message.
func (m *BlockTxnMsg) Size() int { return envelopeOverhead + wire.Size(m) }

// Type implements Message.
func (m *BlockTxnMsg) Type() wire.MsgType { return wire.MsgBlockTxn }

func (m *BlockTxnMsg) dispatch(g *Gossip, from int) { g.handleBlockTxn(from, m) }

// GetBlocksMsg asks a peer for the main-chain blocks after the fork point: the
// locator lists block hashes from the requester's tip back to genesis with
// exponentially growing gaps (the operational client's getblocks shape), so
// the responder can find the highest common block with O(log height) entries.
type GetBlocksMsg struct {
	Locator []BlockID
}

// EncodeWire implements wire.Encoder: a CompactSize count, then the hashes,
// tip first.
func (m *GetBlocksMsg) EncodeWire(w *wire.Writer) {
	w.VarInt(uint64(len(m.Locator)))
	for _, h := range m.Locator {
		w.Bytes32(h)
	}
}

// DecodeWire implements wire.Decoder.
func (m *GetBlocksMsg) DecodeWire(r *wire.Reader) {
	m.Locator = make([]BlockID, r.Count(maxLocatorLen, crypto.HashSize))
	for i := range m.Locator {
		m.Locator[i] = r.Bytes32()
	}
}

// Size implements Message.
func (m *GetBlocksMsg) Size() int { return envelopeOverhead + wire.Size(m) }

// Type implements Message.
func (m *GetBlocksMsg) Type() wire.MsgType { return wire.MsgGetBlocks }

func (m *GetBlocksMsg) dispatch(g *Gossip, from int) { g.base.Sync.handleGetBlocks(from, m) }

// BlockBatchMsg answers GetBlocksMsg with a bounded run of main-chain blocks
// in parent-before-child order. More signals the responder's chain continued
// past the batch limit, telling the requester to ask again from its new tip.
type BlockBatchMsg struct {
	Blocks []types.Block
	More   bool
}

// EncodeWire implements wire.Encoder: the More flag, a CompactSize count,
// then each block as its message type and its length-prefixed encoding — the
// per-member prefix keeps one corrupt block from desynchronizing the rest of
// the frame.
func (m *BlockBatchMsg) EncodeWire(w *wire.Writer) {
	w.Bool(m.More)
	w.VarInt(uint64(len(m.Blocks)))
	for _, b := range m.Blocks {
		w.Uint8(uint8(types.BlockMsgType(b)))
		w.VarEncode(b)
	}
}

// DecodeWire implements wire.Decoder. Members decode straight from the
// frame (wire.Reader.VarDecode) and keep none of its bytes.
func (m *BlockBatchMsg) DecodeWire(r *wire.Reader) {
	m.More = r.Bool()
	m.Blocks = make([]types.Block, r.Count(maxSyncBatch, minBlockEntry))
	for i := range m.Blocks {
		b, err := types.NewBlockMsg(wire.MsgType(r.Uint8()))
		if r.Err() != nil {
			return
		}
		if err != nil {
			r.Fail(err)
			return
		}
		r.VarDecode(wire.MaxMessageSize, b)
		m.Blocks[i] = b
	}
}

// Size implements Message.
func (m *BlockBatchMsg) Size() int { return envelopeOverhead + wire.Size(m) }

// Type implements Message.
func (m *BlockBatchMsg) Type() wire.MsgType { return wire.MsgBlockBatch }

func (m *BlockBatchMsg) dispatch(g *Gossip, from int) { g.base.Sync.handleBlockBatch(from, m) }

// TxMsg relays a loose transaction (used by the live node; experiments
// pre-load mempools instead, §7 "No Transaction Propagation").
type TxMsg struct {
	Tx *types.Transaction
}

// EncodeWire implements wire.Encoder.
func (m *TxMsg) EncodeWire(w *wire.Writer) { w.Embed(m.Tx) }

// DecodeWire implements wire.Decoder into the transaction NewMessage made.
func (m *TxMsg) DecodeWire(r *wire.Reader) { m.Tx.DecodeWire(r) }

// Size implements Message.
func (m *TxMsg) Size() int { return envelopeOverhead + wire.Size(m) }

// Type implements Message.
func (m *TxMsg) Type() wire.MsgType { return wire.MsgTx }

func (m *TxMsg) dispatch(g *Gossip, from int) { g.base.handleTx(from, m.Tx) }

// TxBatchMsg relays several loose transactions in one envelope. Under
// sustained load the per-transaction envelope and event overhead of TxMsg
// dominates relay cost; batching amortizes it (enabled by
// Params.TxBatchInterval).
type TxBatchMsg struct {
	Txs []*types.Transaction
}

// EncodeWire implements wire.Encoder: a CompactSize count, then each
// transaction length-prefixed, so a corrupt member fails cleanly at its
// prefix instead of desynchronizing the rest of the batch.
func (m *TxBatchMsg) EncodeWire(w *wire.Writer) {
	w.VarInt(uint64(len(m.Txs)))
	for _, tx := range m.Txs {
		w.VarEncode(tx)
	}
}

// DecodeWire implements wire.Decoder, each member straight from the frame.
func (m *TxBatchMsg) DecodeWire(r *wire.Reader) {
	m.Txs = make([]*types.Transaction, r.Count(maxTxBatch, minTxMember))
	for i := range m.Txs {
		if r.Err() != nil {
			return
		}
		m.Txs[i] = new(types.Transaction)
		r.VarDecode(1<<20, m.Txs[i])
	}
}

// Size implements Message.
func (m *TxBatchMsg) Size() int { return envelopeOverhead + wire.Size(m) }

// Type implements Message.
func (m *TxBatchMsg) Type() wire.MsgType { return wire.MsgTxBatch }

func (m *TxBatchMsg) dispatch(g *Gossip, from int) {
	for _, tx := range m.Txs {
		g.base.handleTx(from, tx)
	}
}
