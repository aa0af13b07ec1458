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

// wfVerdict is an atomically published well-formedness verdict. Block caches
// are atomic because the sharded event loop lets several shard goroutines
// validate the same shared block object concurrently: every verdict is a pure
// function of the immutable block, so racing fills compute equal values and
// either store wins.
type wfVerdict struct {
	err error
}

// microVerdict caches a microblock verdict together with the leader key it
// was checked under.
type microVerdict struct {
	key crypto.PublicKey
	err error
}

// rootMatches folds the transactions' IDs into their Merkle root and compares
// it with the header's, memoizing a match in ok: stage-1 adoption and the
// well-formedness check both need the fold, and whichever runs first pays for
// it. A mismatch is not memoized; the block's wf verdict already records it.
func rootMatches(ok *atomic.Bool, txs []*Transaction, root crypto.Hash) bool {
	if ok.Load() {
		return true
	}
	if txRoot(txs) != root {
		return false
	}
	ok.Store(true)
	return true
}

// idScratch holds the leaf lists txRoot folds, for the reason scratch holds
// encoding buffers.
var idScratch = sync.Pool{New: func() any { return new([]crypto.Hash) }}

// txRoot is crypto.MerkleRoot(TxIDs(txs)) with the ID list in a pooled slice,
// which the fold then consumes in place.
func txRoot(txs []*Transaction) crypto.Hash {
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

// checkTxSet validates the transaction list shared by PoW and key blocks:
// first transaction is the coinbase, no other coinbases, all well-formed,
// and the Merkle root matches.
func checkTxSet(txs []*Transaction, root crypto.Hash, rootOK *atomic.Bool) error {
	if len(txs) == 0 || txs[0].Kind != TxCoinbase {
		return ErrNoCoinbase
	}
	for i, tx := range txs {
		if i > 0 && tx.Kind == TxCoinbase {
			return fmt.Errorf("%w: position %d", ErrExtraCoinbase, i)
		}
		if err := tx.CheckWellFormed(); err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
	}
	if !rootMatches(rootOK, txs, root) {
		return ErrBadMerkleRoot
	}
	return nil
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
func (h *PowHeader) Hash() crypto.Hash {
	w := getScratch()
	h.EncodeWire(w)
	return sumScratch(w)
}

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

	cachedHash atomic.Pointer[crypto.Hash]
	cachedSize atomic.Int32
	wf         atomic.Pointer[wfVerdict]
	rootOK     atomic.Bool
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
	b.cachedHash.Store(nil)
	b.cachedSize.Store(0)
	b.wf.Store(nil)
	b.rootOK.Store(false)
}

// Hash implements Block; the result is cached.
func (b *PowBlock) Hash() crypto.Hash {
	if p := b.cachedHash.Load(); p != nil {
		return *p
	}
	h := b.Header.Hash()
	b.cachedHash.Store(&h)
	return h
}

// PrevHash implements Block.
func (b *PowBlock) PrevHash() crypto.Hash { return b.Header.Prev }

// Kind implements Block.
func (b *PowBlock) Kind() BlockKind { return KindPow }

// Time implements Block.
func (b *PowBlock) Time() int64 { return b.Header.TimeNanos }

// Transactions implements Block.
func (b *PowBlock) Transactions() []*Transaction { return b.Txs }

// WireSize implements Block; the result is cached.
func (b *PowBlock) WireSize() int {
	if s := b.cachedSize.Load(); s != 0 {
		return int(s)
	}
	s := wire.Size(b)
	b.cachedSize.Store(int32(s))
	return s
}

// CheckWellFormed validates the block against its own header: transaction
// set shape, Merkle root, and (for live blocks) proof of work. The verdict
// is cached: simulated nodes share block objects, so the expensive checks
// run once per network rather than once per node.
func (b *PowBlock) CheckWellFormed() error {
	if v := b.wf.Load(); v != nil {
		return v.err
	}
	var err error
	if !b.SimulatedPoW && !crypto.CheckProofOfWork(b.Hash(), b.Header.Target) {
		err = ErrBadPoW
	} else {
		err = checkTxSet(b.Txs, b.Header.MerkleRoot, &b.rootOK)
	}
	b.wf.Store(&wfVerdict{err: err})
	return err
}

// KeyBlockHeader is a Bitcoin-NG key block header (§4.1): like a Bitcoin
// header plus the public key that signs the subsequent microblocks.
type KeyBlockHeader struct {
	Prev       crypto.Hash
	MerkleRoot crypto.Hash
	TimeNanos  int64
	Target     crypto.CompactTarget
	Nonce      uint64
	LeaderKey  crypto.PublicKey
}

// EncodeWire implements wire.Encoder.
func (h *KeyBlockHeader) EncodeWire(w *wire.Writer) {
	w.Bytes32(h.Prev)
	w.Bytes32(h.MerkleRoot)
	w.Int64(h.TimeNanos)
	w.Uint32(uint32(h.Target))
	w.Uint64(h.Nonce)
	w.Raw(h.LeaderKey[:])
}

// DecodeWire implements wire.Decoder.
func (h *KeyBlockHeader) DecodeWire(r *wire.Reader) {
	h.Prev = r.Bytes32()
	h.MerkleRoot = r.Bytes32()
	h.TimeNanos = r.Int64()
	h.Target = crypto.CompactTarget(r.Uint32())
	h.Nonce = r.Uint64()
	r.Raw(h.LeaderKey[:])
}

// Hash returns the double-SHA256 of the serialized header.
func (h *KeyBlockHeader) Hash() crypto.Hash {
	w := getScratch()
	h.EncodeWire(w)
	return sumScratch(w)
}

// KeyBlock is a full Bitcoin-NG key block. Its transactions are the coinbase
// (paying the previous epoch's fee split, §4.4) and any poison transactions.
type KeyBlock struct {
	Header       KeyBlockHeader
	Txs          []*Transaction
	SimulatedPoW bool

	cachedHash atomic.Pointer[crypto.Hash]
	cachedSize atomic.Int32
	wf         atomic.Pointer[wfVerdict]
	rootOK     atomic.Bool
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
	b.cachedHash.Store(nil)
	b.cachedSize.Store(0)
	b.wf.Store(nil)
	b.rootOK.Store(false)
}

// Hash implements Block; the result is cached.
func (b *KeyBlock) Hash() crypto.Hash {
	if p := b.cachedHash.Load(); p != nil {
		return *p
	}
	h := b.Header.Hash()
	b.cachedHash.Store(&h)
	return h
}

// PrevHash implements Block.
func (b *KeyBlock) PrevHash() crypto.Hash { return b.Header.Prev }

// Kind implements Block.
func (b *KeyBlock) Kind() BlockKind { return KindKey }

// Time implements Block.
func (b *KeyBlock) Time() int64 { return b.Header.TimeNanos }

// Transactions implements Block.
func (b *KeyBlock) Transactions() []*Transaction { return b.Txs }

// WireSize implements Block; the result is cached.
func (b *KeyBlock) WireSize() int {
	if s := b.cachedSize.Load(); s != 0 {
		return int(s)
	}
	s := wire.Size(b)
	b.cachedSize.Store(int32(s))
	return s
}

// CheckWellFormed validates the key block against its own header. The
// verdict is cached (see PowBlock.CheckWellFormed).
func (b *KeyBlock) CheckWellFormed() error {
	if v := b.wf.Load(); v != nil {
		return v.err
	}
	var err error
	if !b.SimulatedPoW && !crypto.CheckProofOfWork(b.Hash(), b.Header.Target) {
		err = ErrBadPoW
	} else {
		err = checkTxSet(b.Txs, b.Header.MerkleRoot, &b.rootOK)
	}
	b.wf.Store(&wfVerdict{err: err})
	return err
}

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
func (h *MicroBlockHeader) Hash() crypto.Hash {
	w := getScratch()
	h.EncodeWire(w)
	return sumScratch(w)
}

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

	cachedHash atomic.Pointer[crypto.Hash]
	cachedSize atomic.Int32
	wf         atomic.Pointer[microVerdict]
	rootOK     atomic.Bool
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
	b.cachedHash.Store(nil)
	b.cachedSize.Store(0)
	b.wf.Store(nil)
	b.rootOK.Store(false)
}

// Hash implements Block; the result is cached.
func (b *MicroBlock) Hash() crypto.Hash {
	if p := b.cachedHash.Load(); p != nil {
		return *p
	}
	h := b.Header.Hash()
	b.cachedHash.Store(&h)
	return h
}

// PrevHash implements Block.
func (b *MicroBlock) PrevHash() crypto.Hash { return b.Header.Prev }

// Kind implements Block.
func (b *MicroBlock) Kind() BlockKind { return KindMicro }

// Time implements Block.
func (b *MicroBlock) Time() int64 { return b.Header.TimeNanos }

// Transactions implements Block.
func (b *MicroBlock) Transactions() []*Transaction { return b.Txs }

// WireSize implements Block; the result is cached.
func (b *MicroBlock) WireSize() int {
	if s := b.cachedSize.Load(); s != 0 {
		return int(s)
	}
	s := wire.Size(b)
	b.cachedSize.Store(int32(s))
	return s
}

// CheckWellFormed validates entries against the header's TxRoot and checks
// the signature under leaderKey (the public key from the latest key block
// on the microblock's chain, §4.2). Microblocks carry no coinbase. The
// verdict is cached per leader key (see PowBlock.CheckWellFormed).
func (b *MicroBlock) CheckWellFormed(leaderKey crypto.PublicKey) error {
	if v := b.wf.Load(); v != nil && v.key == leaderKey {
		return v.err
	}
	err := b.checkWellFormed(leaderKey)
	b.wf.Store(&microVerdict{key: leaderKey, err: err})
	return err
}

func (b *MicroBlock) checkWellFormed(leaderKey crypto.PublicKey) error {
	if !b.Header.VerifySignature(leaderKey) {
		return ErrBadSignature
	}
	for i, tx := range b.Txs {
		if tx.Kind == TxCoinbase {
			return fmt.Errorf("%w: position %d", ErrExtraCoinbase, i)
		}
		if err := tx.CheckWellFormed(); err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
	}
	if !rootMatches(&b.rootOK, b.Txs, b.Header.TxRoot) {
		return ErrBadMerkleRoot
	}
	return nil
}

// stage1Memo returns the block-level stage-1 memos of a concrete block type:
// whether a well-formedness verdict is recorded, the root-match memo, and the
// header's commitment to the transaction list. rootOK is nil for a foreign
// Block implementation, which carries no memos to adopt into.
func stage1Memo(b Block) (judged bool, rootOK *atomic.Bool, root crypto.Hash) {
	switch blk := b.(type) {
	case *PowBlock:
		return blk.wf.Load() != nil, &blk.rootOK, blk.Header.MerkleRoot
	case *KeyBlock:
		return blk.wf.Load() != nil, &blk.rootOK, blk.Header.MerkleRoot
	case *MicroBlock:
		return blk.wf.Load() != nil, &blk.rootOK, blk.Header.TxRoot
	}
	return false, nil, crypto.Hash{}
}

// Stage1Cold reports whether this block object has no stage-1 work recorded
// on it: no well-formedness verdict and no root match. Freshly decoded blocks
// are cold; objects shared between simulated nodes are cold only until the
// first of them judges the block. It is the gate that keeps AdoptSignatures,
// and the cache probe in front of it, off every path that already holds a
// memo.
func Stage1Cold(b Block) bool {
	judged, rootOK, _ := stage1Memo(b)
	return rootOK != nil && !judged && !rootOK.Load()
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
	_, rootOK, root := stage1Memo(b)
	txs := b.Transactions()
	if rootOK == nil || !rootMatches(rootOK, txs, root) {
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
