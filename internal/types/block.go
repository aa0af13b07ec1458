package types

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/wire"
)

// BlockKind discriminates the block variants carried on a chain.
type BlockKind uint8

// Block kinds.
const (
	KindPow   BlockKind = iota // Bitcoin proof-of-work block
	KindKey                    // Bitcoin-NG key block (leader election, §4.1)
	KindMicro                  // Bitcoin-NG microblock (ledger entries, §4.2)
)

// String returns the kind name.
func (k BlockKind) String() string {
	switch k {
	case KindPow:
		return "pow"
	case KindKey:
		return "key"
	case KindMicro:
		return "micro"
	default:
		return fmt.Sprintf("blockkind(%d)", uint8(k))
	}
}

// Block is the interface the chain store and gossip layer operate on. All
// three concrete block types implement it.
type Block interface {
	wire.Encoder
	wire.Decoder

	// Hash returns the block identifier: the hash of the header.
	Hash() crypto.Hash
	// PrevHash returns the identifier of the predecessor block.
	PrevHash() crypto.Hash
	// Kind returns the block variant.
	Kind() BlockKind
	// Time returns the block timestamp in Unix nanoseconds ("the current
	// GMT time" of §4.1/§4.2, at nanosecond resolution for the simulator).
	Time() int64
	// Transactions returns the ledger entries the block carries.
	Transactions() []*Transaction
	// WireSize returns the serialized size in bytes; the network model
	// charges this when the block crosses a link.
	WireSize() int
}

// Block validation errors.
var (
	ErrBadPoW        = errors.New("types: header hash above target")
	ErrBadMerkleRoot = errors.New("types: merkle root does not match transactions")
	ErrNoCoinbase    = errors.New("types: first transaction must be the coinbase")
	ErrExtraCoinbase = errors.New("types: coinbase outside first position")
	ErrBadSignature  = errors.New("types: microblock signature invalid")
)

// memo is what a block object learns about itself, embedded in all three
// block types. Its fields are atomic because the sharded event loop lets shard
// goroutines validate one shared block object concurrently: every value is a
// pure function of the immutable block, so racing fills agree. relay is
// published once, by compare-and-swap, so every reader gets the same object
// (RelaySlot).
type memo struct {
	cachedHash atomic.Pointer[crypto.Hash]
	cachedSize atomic.Int32
	wf         atomic.Pointer[verdict]
	rootOK     atomic.Bool
	relay      atomic.Pointer[any]
}

// verdict is a well-formedness verdict together with the leader key a
// microblock was checked under (zero for a block that carries proof of work).
type verdict struct {
	key crypto.PublicKey
	err error
}

// blockMemo lets a PowCarrier reach its memo, sealing it to this package.
func (m *memo) blockMemo() *memo { return m }

// reset forgets everything memoized, for a block being decoded afresh.
func (m *memo) reset() {
	m.cachedHash.Store(nil)
	m.cachedSize.Store(0)
	m.wf.Store(nil)
	m.rootOK.Store(false)
	m.relay.Store(nil)
}

// hash returns the header's hash, computed once.
func (m *memo) hash(header wire.Encoder) crypto.Hash {
	if p := m.cachedHash.Load(); p != nil {
		return *p
	}
	h := hashOf(header)
	m.cachedHash.Store(&h)
	return h
}

// wireSize returns the block's size, counted once by count: the method value
// encodedSize, which calls EncodeWire directly. Through an interface, or a
// closure inlined into a caller, the counting writer may escape.
func (m *memo) wireSize(count func() int) int {
	if s := m.cachedSize.Load(); s != 0 {
		return int(s)
	}
	s := count()
	m.cachedSize.Store(int32(s))
	return s
}

// judge returns the verdict recorded under key, or records check's. Simulated
// nodes share block objects, so a check runs once per network, not per node.
func (m *memo) judge(key crypto.PublicKey, check func() error) error {
	if v := m.wf.Load(); v != nil && v.key == key {
		return v.err
	}
	err := check()
	m.wf.Store(&verdict{key: key, err: err})
	return err
}

// rootMatches reports whether the transactions fold to root, memoizing a
// match: stage-1 adoption and the well-formedness check both need the fold,
// and whichever runs first pays. A mismatch is left to the block's verdict.
func (m *memo) rootMatches(txs []*Transaction, root crypto.Hash) bool {
	if m.rootOK.Load() {
		return true
	}
	if TxRoot(txs) != root {
		return false
	}
	m.rootOK.Store(true)
	return true
}

// idScratch holds the leaf lists TxRoot folds, for the reason scratch holds
// encoding buffers.
var idScratch = sync.Pool{New: func() any { return new([]crypto.Hash) }}

// TxRoot is the Merkle root of txs' IDs, crypto.MerkleRoot(TxIDs(txs)), with
// the ID list in a pooled slice that the fold consumes in place: block
// assembly and the root check allocate no leaf list.
func TxRoot(txs []*Transaction) crypto.Hash {
	p := idScratch.Get().(*[]crypto.Hash)
	ids := (*p)[:0]
	for _, tx := range txs {
		ids = append(ids, tx.ID())
	}
	root := crypto.MerkleRoot(ids)
	*p = ids
	idScratch.Put(p)
	return root
}

// checkTxs validates a transaction list: each well-formed, a coinbase first
// where one is required and nowhere else, and the Merkle root matching.
func (m *memo) checkTxs(txs []*Transaction, root crypto.Hash, coinbaseFirst bool) error {
	if coinbaseFirst && (len(txs) == 0 || txs[0].Kind != TxCoinbase) {
		return ErrNoCoinbase
	}
	for i, tx := range txs {
		if tx.Kind == TxCoinbase && (i > 0 || !coinbaseFirst) {
			return fmt.Errorf("%w: position %d", ErrExtraCoinbase, i)
		}
		if err := tx.CheckWellFormed(); err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
	}
	if !m.rootMatches(txs, root) {
		return ErrBadMerkleRoot
	}
	return nil
}

// checkPoW is the well-formedness check of a PowCarrier: a live block's hash
// meets its target, and its transactions are coinbase-first under its root.
func (m *memo) checkPoW(b PowCarrier) error {
	return m.judge(crypto.PublicKey{}, func() error {
		h, simulated := b.PoW()
		if !simulated && !crypto.CheckProofOfWork(b.Hash(), h.Target) {
			return ErrBadPoW
		}
		return m.checkTxs(b.Transactions(), h.MerkleRoot, true)
	})
}

// hashOf returns the double-SHA256 of e's encoding, built in pooled scratch.
func hashOf(e wire.Encoder) crypto.Hash {
	w := getScratch()
	e.EncodeWire(w)
	return sumScratch(w)
}

func encodeTxs(w *wire.Writer, txs []*Transaction) {
	w.VarInt(uint64(len(txs)))
	for _, tx := range txs {
		tx.EncodeWire(w)
	}
}

func decodeTxs(r *wire.Reader) []*Transaction {
	n := r.Length(wire.MaxListLen)
	if r.Err() != nil {
		return nil
	}
	txs := make([]*Transaction, n)
	for i := range txs {
		txs[i] = new(Transaction)
		txs[i].DecodeWire(r)
	}
	return txs
}

// PowCarrier is a block that carries proof of work: a PowBlock or a KeyBlock.
type PowCarrier interface {
	Block
	// PoW returns the Bitcoin header and whether its proof is simulated.
	PoW() (header *PowHeader, simulated bool)
	// CheckWellFormed validates the block against its own header (see
	// checkPoW); the verdict is cached.
	CheckWellFormed() error
	blockMemo() *memo
}

// CarriesPoW reports whether b carries proof of work, returning it as a
// PowCarrier if so. It switches over concrete types: an assertion to an
// interface would now and then allocate the runtime's type-assertion cache.
func CarriesPoW(b Block) (PowCarrier, bool) {
	switch blk := b.(type) {
	case *PowBlock:
		return blk, true
	case *KeyBlock:
		return blk, true
	}
	return nil, false
}

// PowHeader is a Bitcoin block header (§3: previous-block reference, Merkle
// root of the transactions, time, difficulty target, nonce).
type PowHeader struct {
	Prev       crypto.Hash
	MerkleRoot crypto.Hash
	TimeNanos  int64
	Target     crypto.CompactTarget
	Nonce      uint64
}

// EncodeWire implements wire.Encoder.
func (h *PowHeader) EncodeWire(w *wire.Writer) {
	w.Bytes32(h.Prev)
	w.Bytes32(h.MerkleRoot)
	w.Int64(h.TimeNanos)
	w.Uint32(uint32(h.Target))
	w.Uint64(h.Nonce)
}

// DecodeWire implements wire.Decoder.
func (h *PowHeader) DecodeWire(r *wire.Reader) {
	h.Prev = r.Bytes32()
	h.MerkleRoot = r.Bytes32()
	h.TimeNanos = r.Int64()
	h.Target = crypto.CompactTarget(r.Uint32())
	h.Nonce = r.Uint64()
}

// Hash returns the double-SHA256 of the serialized header.
func (h *PowHeader) Hash() crypto.Hash { return hashOf(h) }

// PowBlock is a full Bitcoin block.
type PowBlock struct {
	Header PowHeader
	Txs    []*Transaction

	// SimulatedPoW marks blocks produced by the simulated miner (§7
	// "Simulated Mining"): the experiment controller triggers generation
	// and difficulty validation is skipped, exactly like the regtest mode
	// the paper uses. Live blocks have it false and must satisfy the
	// target. The flag is part of the serialization so a node processes
	// both identically otherwise.
	SimulatedPoW bool

	memo
}

// EncodeWire implements wire.Encoder.
func (b *PowBlock) EncodeWire(w *wire.Writer) {
	b.Header.EncodeWire(w)
	w.Bool(b.SimulatedPoW)
	encodeTxs(w, b.Txs)
}

// DecodeWire implements wire.Decoder.
func (b *PowBlock) DecodeWire(r *wire.Reader) {
	b.Header.DecodeWire(r)
	b.SimulatedPoW = r.Bool()
	b.Txs = decodeTxs(r)
	b.reset()
}

// Block, with Hash and WireSize cached in the memo.
func (b *PowBlock) Hash() crypto.Hash            { return b.hash(&b.Header) }
func (b *PowBlock) PrevHash() crypto.Hash        { return b.Header.Prev }
func (b *PowBlock) Kind() BlockKind              { return KindPow }
func (b *PowBlock) Time() int64                  { return b.Header.TimeNanos }
func (b *PowBlock) Transactions() []*Transaction { return b.Txs }
func (b *PowBlock) WireSize() int                { return b.wireSize(b.encodedSize) }
func (b *PowBlock) encodedSize() int             { return wire.Size(b) }

// PowCarrier.
func (b *PowBlock) PoW() (*PowHeader, bool) { return &b.Header, b.SimulatedPoW }
func (b *PowBlock) CheckWellFormed() error  { return b.checkPoW(b) }

// KeyBlockHeader is a Bitcoin-NG key block header (§4.1): a Bitcoin header
// plus the public key that signs the subsequent microblocks.
type KeyBlockHeader struct {
	PowHeader
	LeaderKey crypto.PublicKey
}

// EncodeWire implements wire.Encoder.
func (h *KeyBlockHeader) EncodeWire(w *wire.Writer) {
	h.PowHeader.EncodeWire(w)
	w.Raw(h.LeaderKey[:])
}

// DecodeWire implements wire.Decoder.
func (h *KeyBlockHeader) DecodeWire(r *wire.Reader) {
	h.PowHeader.DecodeWire(r)
	r.Raw(h.LeaderKey[:])
}

// Hash returns the double-SHA256 of the serialized header, leader key
// included (the promoted PowHeader.Hash would leave it out).
func (h *KeyBlockHeader) Hash() crypto.Hash { return hashOf(h) }

// KeyBlock is a full Bitcoin-NG key block. Its transactions are the coinbase
// (paying the previous epoch's fee split, §4.4) and any poison transactions.
type KeyBlock struct {
	Header       KeyBlockHeader
	Txs          []*Transaction
	SimulatedPoW bool

	memo
}

// EncodeWire implements wire.Encoder.
func (b *KeyBlock) EncodeWire(w *wire.Writer) {
	b.Header.EncodeWire(w)
	w.Bool(b.SimulatedPoW)
	encodeTxs(w, b.Txs)
}

// DecodeWire implements wire.Decoder.
func (b *KeyBlock) DecodeWire(r *wire.Reader) {
	b.Header.DecodeWire(r)
	b.SimulatedPoW = r.Bool()
	b.Txs = decodeTxs(r)
	b.reset()
}

// Block, with Hash and WireSize cached in the memo.
func (b *KeyBlock) Hash() crypto.Hash            { return b.hash(&b.Header) }
func (b *KeyBlock) PrevHash() crypto.Hash        { return b.Header.Prev }
func (b *KeyBlock) Kind() BlockKind              { return KindKey }
func (b *KeyBlock) Time() int64                  { return b.Header.TimeNanos }
func (b *KeyBlock) Transactions() []*Transaction { return b.Txs }
func (b *KeyBlock) WireSize() int                { return b.wireSize(b.encodedSize) }
func (b *KeyBlock) encodedSize() int             { return wire.Size(b) }

// PowCarrier.
func (b *KeyBlock) PoW() (*PowHeader, bool) { return &b.Header.PowHeader, b.SimulatedPoW }
func (b *KeyBlock) CheckWellFormed() error  { return b.checkPoW(b) }

// MicroBlockHeader is a Bitcoin-NG microblock header (§4.2): predecessor
// reference, time, hash of the ledger entries, and the leader's signature.
type MicroBlockHeader struct {
	Prev      crypto.Hash
	TxRoot    crypto.Hash
	TimeNanos int64
	Signature crypto.Signature
}

// EncodeWire implements wire.Encoder.
func (h *MicroBlockHeader) EncodeWire(w *wire.Writer) {
	w.Bytes32(h.Prev)
	w.Bytes32(h.TxRoot)
	w.Int64(h.TimeNanos)
	w.Raw(h.Signature[:])
}

// DecodeWire implements wire.Decoder.
func (h *MicroBlockHeader) DecodeWire(r *wire.Reader) {
	h.Prev = r.Bytes32()
	h.TxRoot = r.Bytes32()
	h.TimeNanos = r.Int64()
	r.Raw(h.Signature[:])
}

// Hash returns the double-SHA256 of the serialized header (including the
// signature, so the ID commits to it).
func (h *MicroBlockHeader) Hash() crypto.Hash { return hashOf(h) }

// SigHash returns the digest the leader signs: the header serialized with
// the signature, its last field, zeroed.
func (h *MicroBlockHeader) SigHash() crypto.Hash {
	w := getScratch()
	h.EncodeWire(w)
	buf := w.Bytes()
	clear(buf[len(buf)-crypto.SignatureSize:])
	return sumScratch(w)
}

// Sign fills in the header signature using the leader's private key, which
// must match the public key in the epoch's key block.
func (h *MicroBlockHeader) Sign(priv *crypto.PrivateKey) {
	sighash := h.SigHash()
	h.Signature = priv.Sign(sighash[:])
}

// VerifySignature reports whether the header is signed by leaderKey.
func (h *MicroBlockHeader) VerifySignature(leaderKey crypto.PublicKey) bool {
	sighash := h.SigHash()
	return leaderKey.Verify(sighash[:], h.Signature)
}

// MicroBlock is a full Bitcoin-NG microblock: ledger entries plus a signed
// header. Microblocks contain no proof of work and carry no chain weight.
type MicroBlock struct {
	Header MicroBlockHeader
	Txs    []*Transaction

	memo
}

// EncodeWire implements wire.Encoder.
func (b *MicroBlock) EncodeWire(w *wire.Writer) {
	b.Header.EncodeWire(w)
	encodeTxs(w, b.Txs)
}

// DecodeWire implements wire.Decoder.
func (b *MicroBlock) DecodeWire(r *wire.Reader) {
	b.Header.DecodeWire(r)
	b.Txs = decodeTxs(r)
	b.reset()
}

// Block, with Hash and WireSize cached in the memo.
func (b *MicroBlock) Hash() crypto.Hash            { return b.hash(&b.Header) }
func (b *MicroBlock) PrevHash() crypto.Hash        { return b.Header.Prev }
func (b *MicroBlock) Kind() BlockKind              { return KindMicro }
func (b *MicroBlock) Time() int64                  { return b.Header.TimeNanos }
func (b *MicroBlock) Transactions() []*Transaction { return b.Txs }
func (b *MicroBlock) WireSize() int                { return b.wireSize(b.encodedSize) }
func (b *MicroBlock) encodedSize() int             { return wire.Size(b) }

// CheckWellFormed checks the signature under leaderKey (the public key of the
// latest key block on the microblock's chain, §4.2) and the coinbase-free
// entries against the header's TxRoot. The verdict is cached per leader key.
func (b *MicroBlock) CheckWellFormed(leaderKey crypto.PublicKey) error {
	return b.judge(leaderKey, func() error {
		if !b.Header.VerifySignature(leaderKey) {
			return ErrBadSignature
		}
		return b.checkTxs(b.Txs, b.Header.TxRoot, false)
	})
}

// stage1Memo returns a block's memo and its header's commitment to the
// transactions; nil for a foreign Block implementation, which has no memo.
func stage1Memo(b Block) (*memo, crypto.Hash) {
	if pb, ok := CarriesPoW(b); ok {
		h, _ := pb.PoW()
		return pb.blockMemo(), h.MerkleRoot
	}
	if mb, ok := b.(*MicroBlock); ok {
		return &mb.memo, mb.Header.TxRoot
	}
	return nil, crypto.Hash{}
}

// RelaySlot returns the slot in which the gossip layer keeps what it derives
// from b alone, its messages: built by the first node to need them and then
// read by every node that shares the block object. Nil for a foreign Block
// implementation, which has no memo. The slot is opaque here; it is cleared
// when the block is decoded afresh.
func RelaySlot(b Block) *atomic.Pointer[any] {
	switch blk := b.(type) {
	case *PowBlock:
		return &blk.relay
	case *KeyBlock:
		return &blk.relay
	case *MicroBlock:
		return &blk.relay
	}
	return nil
}

// Stage1Cold reports whether this block object has no stage-1 work recorded
// on it: no well-formedness verdict and no root match. Freshly decoded blocks
// are cold; objects shared between simulated nodes are cold only until the
// first of them judges the block. It is the gate that keeps AdoptSignatures,
// and the cache probe in front of it, off every path that already holds a
// memo.
func Stage1Cold(b Block) bool {
	m, _ := stage1Memo(b)
	return m != nil && m.wf.Load() == nil && !m.rootOK.Load()
}

// AdoptSignatures marks every transaction of b signature-checked without
// verifying, provided the transactions fold to the Merkle root in b's header,
// and reports how many it marked. The caller vouches that a block with b's
// hash passed CheckWellFormed in this process before. That is enough, because
// the bytes then are the bytes now: the block hash commits to the header, the
// header to the root, a matching fold to every transaction ID, and an ID
// hashes the transaction's full encoding, signatures included (Transaction.ID)
// — and a signature verdict is a pure function of that encoding. Nothing else
// is adopted: CheckWellFormed still runs every shape check, the proof of work
// or leader signature, and finds the fold memoized. A root mismatch adopts
// nothing and leaves the rejection to CheckWellFormed.
func AdoptSignatures(b Block) (adopted int, ok bool) {
	m, root := stage1Memo(b)
	txs := b.Transactions()
	if m == nil || !m.rootMatches(txs, root) {
		return 0, false
	}
	for _, tx := range txs {
		tx.sigOK.Store(true)
	}
	return len(txs), true
}

// NewBlockMsg returns an empty block of the type relayed with message type t,
// ready for DecodeWire.
func NewBlockMsg(t wire.MsgType) (Block, error) {
	switch t {
	case wire.MsgBlock:
		return new(PowBlock), nil
	case wire.MsgKeyBlock:
		return new(KeyBlock), nil
	case wire.MsgMicroBlock:
		return new(MicroBlock), nil
	}
	return nil, fmt.Errorf("types: message type %v is not a block", t)
}

// DecodeBlockMsg decodes a block received with the given message type.
func DecodeBlockMsg(t wire.MsgType, payload []byte) (Block, error) {
	b, err := NewBlockMsg(t)
	if err != nil {
		return nil, err
	}
	if err := wire.Decode(payload, b); err != nil {
		return nil, err
	}
	return b, nil
}

// BlockMsgType returns the wire message type used to relay b.
func BlockMsgType(b Block) wire.MsgType {
	switch b.Kind() {
	case KindKey:
		return wire.MsgKeyBlock
	case KindMicro:
		return wire.MsgMicroBlock
	default:
		return wire.MsgBlock
	}
}
