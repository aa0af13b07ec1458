// Package types defines the ledger data structures shared by every protocol
// in this repository: transactions over a UTXO model, Bitcoin proof-of-work
// blocks, and Bitcoin-NG key blocks and microblocks (§3, §4 of the paper).
//
// Types carry only intrinsic validation (well-formedness, signatures,
// proof-of-work checks against their own header). Contextual validation —
// double spends, fee splits, maturity — lives in internal/utxo and
// internal/chain.
package types

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/wire"
)

// Amount is a currency quantity in base units (the analogue of satoshis).
type Amount int64

// MaxAmount bounds any single output value; it mirrors Bitcoin's 21M coin
// cap expressed in base units and protects the validator from overflow.
const MaxAmount Amount = 21_000_000 * 100_000_000

// TxKind discriminates the transaction variants.
type TxKind uint8

// Transaction kinds.
const (
	TxRegular  TxKind = iota // value transfer between addresses
	TxCoinbase               // block reward; first transaction of a PoW/key block
	TxPoison                 // Bitcoin-NG fraud proof (§4.5)
)

// String returns the kind name.
func (k TxKind) String() string {
	switch k {
	case TxRegular:
		return "regular"
	case TxCoinbase:
		return "coinbase"
	case TxPoison:
		return "poison"
	default:
		return fmt.Sprintf("txkind(%d)", uint8(k))
	}
}

// OutPoint names one output of a prior transaction.
type OutPoint struct {
	TxID  crypto.Hash
	Index uint32
}

// String renders the outpoint as txid:index.
func (o OutPoint) String() string {
	return fmt.Sprintf("%s:%d", o.TxID.Short(), o.Index)
}

// TxInput spends an existing output. PubKey must hash to the address the
// spent output pays, and Sig must be a valid signature of the transaction's
// SigHash under PubKey.
type TxInput struct {
	Prev   OutPoint
	PubKey crypto.PublicKey
	Sig    crypto.Signature
}

// TxOutput pays Value to an address.
type TxOutput struct {
	Value Amount
	To    crypto.Address
}

// PoisonEvidence is the fraud proof carried by a poison transaction: the
// header of the first microblock in the pruned branch, demonstrating that
// the accused leader signed two microblocks extending the same predecessor
// (§4.5). Culprit names the key block whose leader is being punished.
type PoisonEvidence struct {
	Culprit  crypto.Hash      // hash of the cheating leader's key block
	Pruned   MicroBlockHeader // signed header from the pruned branch
	Conflict crypto.Hash      // hash of the main-chain microblock with the same Prev
}

// Transaction is a ledger entry. The zero value is not valid; construct
// transactions with the builder functions or the wallet package.
type Transaction struct {
	Kind    TxKind
	Inputs  []TxInput
	Outputs []TxOutput

	// Height makes coinbase transactions at different heights distinct
	// (Bitcoin embeds the height in the coinbase script for the same
	// reason). Zero for other kinds.
	Height uint64

	// Evidence is set on poison transactions only.
	Evidence *PoisonEvidence

	// Padding inflates the serialized size so experiment workloads can use
	// identical-size artificial transactions (§7 "No Transaction
	// Propagation"); it carries no meaning.
	Padding []byte

	// Derived values are cached because simulated nodes share transaction
	// objects: hashing, size, signature checks, and input-address
	// derivation then cost once per network instead of once per node.
	// Transactions are immutable once signed; code that mutates a
	// transaction afterwards (tamper tests) must call Invalidate.
	//
	// The caches are atomic because the sharded event loop validates shared
	// objects from several shard goroutines at once: every cached value is a
	// pure function of the (immutable) transaction, so racing fills compute
	// the same value and either store wins.
	cachedID   atomic.Pointer[crypto.Hash]
	cachedSize atomic.Int32
	sigOK      atomic.Bool
	inputAddrs atomic.Pointer[[]crypto.Address]
}

// Invalidate drops every cached derived value. Call it after mutating a
// transaction that has already been hashed, sized, or signature-checked.
func (t *Transaction) Invalidate() {
	t.cachedID.Store(nil)
	t.cachedSize.Store(0)
	t.sigOK.Store(false)
	t.inputAddrs.Store(nil)
}

// Transaction shape limits.
const (
	MaxTxInputs  = 1 << 12
	MaxTxOutputs = 1 << 12
	MaxTxPadding = 1 << 16
)

// Validation errors.
var (
	ErrNoOutputs       = errors.New("types: transaction has no outputs")
	ErrBadValue        = errors.New("types: output value out of range")
	ErrCoinbaseInputs  = errors.New("types: coinbase must have no inputs")
	ErrMissingInputs   = errors.New("types: regular transaction needs inputs")
	ErrMissingEvidence = errors.New("types: poison transaction needs evidence")
	ErrStrayEvidence   = errors.New("types: non-poison transaction carries evidence")
)

// EncodeWire implements wire.Encoder.
func (t *Transaction) EncodeWire(w *wire.Writer) {
	w.Uint8(uint8(t.Kind))
	w.VarInt(uint64(len(t.Inputs)))
	for i := range t.Inputs {
		in := &t.Inputs[i]
		w.Bytes32(in.Prev.TxID)
		w.Uint32(in.Prev.Index)
		w.Raw(in.PubKey[:])
		w.Raw(in.Sig[:])
	}
	w.VarInt(uint64(len(t.Outputs)))
	for i := range t.Outputs {
		out := &t.Outputs[i]
		w.Int64(int64(out.Value))
		w.Bytes32(crypto.Hash(out.To))
	}
	w.Uint64(t.Height)
	if t.Evidence != nil {
		w.Bool(true)
		w.Bytes32(t.Evidence.Culprit)
		t.Evidence.Pruned.EncodeWire(w)
		w.Bytes32(t.Evidence.Conflict)
	} else {
		w.Bool(false)
	}
	w.VarBytes(t.Padding)
}

// DecodeWire implements wire.Decoder.
func (t *Transaction) DecodeWire(r *wire.Reader) {
	t.Kind = TxKind(r.Uint8())
	nIn := r.Length(MaxTxInputs)
	t.Inputs = make([]TxInput, nIn)
	for i := range t.Inputs {
		in := &t.Inputs[i]
		in.Prev.TxID = r.Bytes32()
		in.Prev.Index = r.Uint32()
		r.Raw(in.PubKey[:])
		r.Raw(in.Sig[:])
	}
	nOut := r.Length(MaxTxOutputs)
	t.Outputs = make([]TxOutput, nOut)
	for i := range t.Outputs {
		out := &t.Outputs[i]
		out.Value = Amount(r.Int64())
		out.To = crypto.Address(r.Bytes32())
	}
	t.Height = r.Uint64()
	if r.Bool() {
		ev := &PoisonEvidence{}
		ev.Culprit = r.Bytes32()
		ev.Pruned.DecodeWire(r)
		ev.Conflict = r.Bytes32()
		t.Evidence = ev
	} else {
		t.Evidence = nil
	}
	t.Padding = r.VarBytes(MaxTxPadding)
	t.Invalidate()
}

// scratch holds the encoding buffers digests are computed in: an ID, sighash
// or header hash encodes into a pooled Writer, hashes the bytes where they
// lie and hands the Writer back, so once the pool is warm a digest allocates
// nothing. Pooled rather than per-object because the sharded event loop and
// the validation pool compute digests from several goroutines at once.
var scratch = sync.Pool{New: func() any { return new(wire.Writer) }}

func getScratch() *wire.Writer { return scratch.Get().(*wire.Writer) }

// sumScratch returns the double-SHA256 of w's contents and puts w back.
func sumScratch(w *wire.Writer) crypto.Hash {
	h := crypto.HashBytes(w.Bytes())
	w.Reset()
	scratch.Put(w)
	return h
}

// ID returns the transaction hash over its full serialization. The result
// is cached (the cached copy is the one allocation an ID costs); see
// Invalidate.
func (t *Transaction) ID() crypto.Hash {
	if p := t.cachedID.Load(); p != nil {
		return *p
	}
	w := getScratch()
	t.EncodeWire(w)
	id := sumScratch(w)
	t.cachedID.Store(&id)
	return id
}

// WireSize returns the serialized size in bytes; the network model charges
// this size when a transaction or its enclosing block crosses a link. The
// result is cached; see Invalidate.
func (t *Transaction) WireSize() int {
	if s := t.cachedSize.Load(); s != 0 {
		return int(s)
	}
	s := wire.Size(t)
	t.cachedSize.Store(int32(s))
	return s
}

// InputAddr returns the address input i spends from (the hash of its public
// key), cached per transaction.
func (t *Transaction) InputAddr(i int) crypto.Address {
	if p := t.inputAddrs.Load(); p != nil {
		return (*p)[i]
	}
	addrs := make([]crypto.Address, len(t.Inputs))
	for j := range t.Inputs {
		addrs[j] = t.Inputs[j].PubKey.Addr()
	}
	t.inputAddrs.Store(&addrs)
	return addrs[i]
}

// Input layout inside EncodeWire's bytes: each input is its outpoint, public
// key and signature, back to back.
const (
	inputSigOffset = crypto.HashSize + 4 + crypto.PublicKeySize
	inputSize      = inputSigOffset + crypto.SignatureSize
)

// SigHash returns the digest inputs sign: the transaction serialized with
// every input signature zeroed, so signatures cover everything else
// (including all other inputs and outputs). The full encoding is built in a
// scratch buffer and each signature is zeroed there, where EncodeWire put it:
// the inputs follow the kind byte and the input count.
func (t *Transaction) SigHash() crypto.Hash {
	w := getScratch()
	w.Uint8(uint8(t.Kind))
	w.VarInt(uint64(len(t.Inputs)))
	sig := w.Len() + inputSigOffset
	w.Reset()
	t.EncodeWire(w)
	buf := w.Bytes()
	for range t.Inputs {
		clear(buf[sig : sig+crypto.SignatureSize])
		sig += inputSize
	}
	return sumScratch(w)
}

// OutputSum returns the total of all output values.
func (t *Transaction) OutputSum() Amount {
	var sum Amount
	for i := range t.Outputs {
		sum += t.Outputs[i].Value
	}
	return sum
}

// CheckWellFormed performs context-free validation: shape constraints and
// input signature verification. It does not check whether inputs exist or
// are unspent (that needs the UTXO set).
func (t *Transaction) CheckWellFormed() error {
	if len(t.Outputs) == 0 {
		return ErrNoOutputs
	}
	for i := range t.Outputs {
		v := t.Outputs[i].Value
		if v < 0 || v > MaxAmount {
			return fmt.Errorf("%w: output %d value %d", ErrBadValue, i, v)
		}
	}
	switch t.Kind {
	case TxCoinbase:
		if len(t.Inputs) != 0 {
			return ErrCoinbaseInputs
		}
		if t.Evidence != nil {
			return ErrStrayEvidence
		}
	case TxPoison:
		if t.Evidence == nil {
			return ErrMissingEvidence
		}
	case TxRegular:
		if len(t.Inputs) == 0 {
			return ErrMissingInputs
		}
		if t.Evidence != nil {
			return ErrStrayEvidence
		}
	default:
		return fmt.Errorf("types: unknown transaction kind %d", t.Kind)
	}
	if t.Kind != TxCoinbase && t.Height != 0 {
		return fmt.Errorf("types: %s transaction carries height", t.Kind)
	}
	if len(t.Inputs) > 0 && !t.sigOK.Load() {
		sighash := t.SigHash()
		for i := range t.Inputs {
			in := &t.Inputs[i]
			if !in.PubKey.Verify(sighash[:], in.Sig) {
				return fmt.Errorf("types: input %d signature invalid", i)
			}
		}
		t.sigOK.Store(true)
	}
	return nil
}

// SignInput signs input i of the transaction with priv and stores the
// signature and public key in place. Call after all inputs and outputs are
// final: any later mutation invalidates the signature.
func (t *Transaction) SignInput(i int, priv *crypto.PrivateKey) {
	t.Invalidate()
	t.Inputs[i].PubKey = priv.Public()
	t.Inputs[i].Sig = crypto.Signature{}
	sighash := t.SigHash()
	t.Inputs[i].Sig = priv.Sign(sighash[:])
}

// TxIDs returns the hashes of the given transactions, in order; the Merkle
// root of a block is computed over this list.
func TxIDs(txs []*Transaction) []crypto.Hash {
	ids := make([]crypto.Hash, len(txs))
	for i, tx := range txs {
		ids[i] = tx.ID()
	}
	return ids
}
