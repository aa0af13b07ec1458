// Package utxo implements the replicated state machine the blockchain
// serializes (§2, §3 of the paper): an unspent-transaction-output set with
// atomic block application, undo records for chain reorganizations, coinbase
// maturity, and Bitcoin-NG poison revocation of fraudulent leader revenue
// (§4.5).
//
// The set is a persistent table held in memory, whatever store a node runs
// on: every state a block operation leaves behind is an immutable, versioned
// value. A Delta records the two versions it maps between, so replaying it
// onto a set that is at the recorded version is not a replay at all — the set
// adopts the recorded state in O(1), and every simulated node on one chain
// tip holds the same ledger by pointer instead of a private copy of it.
package utxo

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"weak"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// Entry is one unspent output.
type Entry struct {
	Value types.Amount
	To    crypto.Address
	// Coinbase entries are spendable only after the maturity period
	// (§4.4) and are the only entries poison transactions can revoke.
	Coinbase bool
	// Height is the key-height (PoW-block height for Bitcoin) of the block
	// that created the entry, used for the maturity check.
	Height uint64
	// Revoked entries belonged to a leader proven fraudulent (§4.5); they
	// can never be spent.
	Revoked bool
}

// Validation errors.
var (
	ErrMissingInput    = errors.New("utxo: input not found or already spent")
	ErrWrongOwner      = errors.New("utxo: input key does not own the output")
	ErrImmature        = errors.New("utxo: coinbase output not yet mature")
	ErrRevokedInput    = errors.New("utxo: output revoked by poison transaction")
	ErrValueOverflow   = errors.New("utxo: outputs exceed inputs")
	ErrUnknownCulprit  = errors.New("utxo: poison target coinbase unknown")
	ErrAlreadyPoisoned = errors.New("utxo: cheater already poisoned")
	ErrExcessReward    = errors.New("utxo: poison reward exceeds allowed fraction")
	ErrDuplicateOutput = errors.New("utxo: output already exists")
)

// BlockRef identifies the block a delta belongs to. The block operations
// carry it for their callers' bookkeeping; the set itself never reads it.
type BlockRef struct {
	Block  crypto.Hash
	Parent crypto.Hash
}

// BlockContext carries the contextual information ApplyBlock needs.
type BlockContext struct {
	// Height is the key-height of the block being applied (microblocks use
	// their epoch's key height).
	Height uint64
	// Params supplies CoinbaseMaturity and PoisonRewardFrac.
	Params types.Params
	// PoisonTargets maps a poison transaction's ID to the coinbase
	// transaction ID of the culprit it revokes. The chain layer resolves
	// the mapping from the evidence (culprit key block → its coinbase)
	// after verifying the fraud proof.
	PoisonTargets map[crypto.Hash]crypto.Hash
	// Ref identifies the block being applied (zero for contexts built by
	// tests). The set itself ignores it.
	Ref BlockRef
}

// Set is the UTXO set. It is not safe for concurrent use; each protocol node
// owns one (or a small number, for staging branch validation).
type Set struct {
	led     *ledger
	edit    *editToken
	version Version
	stats   Stats
}

// New returns an empty set.
func New() *Set { return &Set{led: &ledger{root: emptyRoot}, version: emptyVersion} }

// Version returns the logical version of the set's contents.
func (s *Set) Version() Version { return s.version }

// Len returns the number of unspent entries.
func (s *Set) Len() int { return s.led.n }

// Lookup returns the entry for op, if present.
func (s *Set) Lookup(op types.OutPoint) (Entry, bool) { return s.get(op) }

// Range iterates the unspent entries until fn returns false, in an order
// that is a function of the contents alone. Callers must not mutate the set
// during iteration. Consumers that need a meaningful order (wallets,
// reports) must sort.
func (s *Set) Range(fn func(op types.OutPoint, e Entry) bool) {
	s.led.root.each(func(l *leaf) bool { return fn(l.op, l.e) })
}

// BalanceOf sums the spendable (non-revoked) value paid to addr. It is a
// linear scan intended for wallets and tests, not consensus.
func (s *Set) BalanceOf(addr crypto.Address) types.Amount {
	var sum types.Amount
	s.Range(func(_ types.OutPoint, e Entry) bool {
		if e.To == addr && !e.Revoked {
			sum += e.Value
		}
		return true
	})
	return sum
}

// Clone returns an isolated snapshot, used to stage validation of a
// candidate branch without touching the active state. It shares the frozen
// state: O(1), and isolated because neither side ever writes a frozen node —
// each copies the paths it changes. The poisoned set is part of the state,
// so a staged branch's poison transaction cannot leak into the active state
// (or vice versa) any more than an entry can. The copy keeps the version;
// its counters start at zero.
func (s *Set) Clone() *Set { return &Set{led: s.freeze(), version: s.version} }

// Reset drops all entries and poison marks, returning the set to the shared
// empty version. The restart path resets before replaying the durable chain
// prefix so a half-synced node can never double-apply.
func (s *Set) Reset() error {
	s.led, s.edit, s.version = &ledger{root: emptyRoot}, nil, emptyVersion
	return nil
}

// Sync does nothing: the set lives in memory, and a node's durable state is
// its chain index, from which every boot rebuilds the ledger. It is kept for
// callers that drive a store's whole lifecycle.
func (s *Set) Sync() error { return nil }

// Close does nothing, like Sync.
func (s *Set) Close() error { return nil }

// Stats returns the set's cumulative operation counters.
func (s *Set) Stats() Stats { return s.stats }

// Delta op kinds.
const (
	opCreate uint8 = iota // entry added to the set
	opSpend               // entry consumed (Entry holds the old value)
	opRevoke              // entry flipped to Revoked
	opPoison              // coinbase txid marked poisoned (Op.TxID holds it)
)

// deltaOp is one recorded mutation. Ops form an ordered log so a delta
// replays forward correctly even when a block spends outputs it created
// (intra-block chains), and reverses backward for reorganizations. The leaf
// holds the new entry for opCreate and the old one for opSpend. It is the
// very leaf the table links for that entry, so applying or replaying a
// create, or undoing a spend, allocates no leaf.
type deltaOp struct {
	kind uint8
	leaf
}

// Delta records one block's effect on the set as an ordered mutation log. It
// serves two roles: the undo record for disconnecting the block during a
// reorganization, and — because create ops carry the full entries — a redo
// record that replays the block onto another set in the same pre-state
// without re-validating anything (the connect cache in internal/validate
// shares one Delta across every node that connects the block). The log and
// the versions are immutable once ApplyBlock returns; Redo/Undo only read
// them. Tables link the log's leaves directly, so a live entry keeps its
// block's log alive until the entry is spent. That costs nothing while the
// chain holds the delta as an undo record anyway; only the log of a block
// whose undo record compaction dropped stays resident for its unspent
// outputs.
//
// A delta also names the versions it maps between and references the frozen
// ledgers on both sides, which is what lets Redo/Undo hand a set the recorded
// state instead of replaying the log. The references are weak: a delta is
// retained as an undo record for as long as its block stays connected, and
// must not pin every superseded ledger of a node that shares with nobody. A
// state some set still stands on is alive and adoptable; one nobody holds is
// gone, the next set to cross the delta replays the log, and re-publishes
// what it rebuilt.
type Delta struct {
	ops []deltaOp

	// pre and post are the versions before and after the block.
	pre, post Version
	// Op counts by kind, from which an adoption accounts the logical
	// Gets/Puts/Deletes a replay would have made.
	creates, spends, revokes uint32

	mu            sync.Mutex // guards before and after (re-publication races across shards)
	before, after weak.Pointer[ledger]
}

// record appends one mutation to the log and returns its leaf.
func (d *Delta) record(kind uint8, op types.OutPoint, e Entry) *leaf {
	d.ops = append(d.ops, deltaOp{kind: kind, leaf: leaf{op: op, e: e}})
	switch kind {
	case opCreate:
		d.creates++
	case opSpend:
		d.spends++
	case opRevoke:
		d.revokes++
	}
	return &d.ops[len(d.ops)-1].leaf
}

// recorded returns the frozen ledger *ref still references, if any set keeps
// it alive.
func (d *Delta) recorded(ref *weak.Pointer[ledger]) *ledger {
	d.mu.Lock()
	defer d.mu.Unlock()
	return ref.Value()
}

// publish points *ref at led unless it still references a live ledger.
func (d *Delta) publish(ref *weak.Pointer[ledger], led *ledger) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ref.Value() == nil {
		*ref = weak.Make(led)
	}
}

// checkSpend validates that input i of tx may spend from the set at the
// given context and returns the entry.
func (s *Set) checkSpend(tx *types.Transaction, i int, ctx *BlockContext) (Entry, error) {
	in := &tx.Inputs[i]
	e, ok := s.get(in.Prev)
	if !ok {
		return Entry{}, fmt.Errorf("%w: %v", ErrMissingInput, in.Prev)
	}
	if e.Revoked {
		return Entry{}, fmt.Errorf("%w: %v", ErrRevokedInput, in.Prev)
	}
	if tx.InputAddr(i) != e.To {
		return Entry{}, fmt.Errorf("%w: %v", ErrWrongOwner, in.Prev)
	}
	if e.Coinbase && ctx.Height-e.Height < uint64(ctx.Params.CoinbaseMaturity) {
		return Entry{}, fmt.Errorf("%w: %v at height %d, needs %d confirmations",
			ErrImmature, in.Prev, e.Height, ctx.Params.CoinbaseMaturity)
	}
	return e, nil
}

// applyTx validates and applies one transaction, appending to the delta log.
// Signature validity is intrinsic (checked by CheckWellFormed before the
// block reaches the state machine); applyTx checks the contextual rules.
func (s *Set) applyTx(tx *types.Transaction, ctx *BlockContext, d *Delta) (fee types.Amount, err error) {
	txid := tx.ID()
	switch tx.Kind {
	case types.TxPoison:
		if err := s.applyPoison(tx, txid, ctx, d); err != nil {
			return 0, err
		}
	case types.TxCoinbase:
		// Amount correctness is the chain layer's concern (it knows the
		// subsidy and collected fees); here a coinbase just mints.
	default:
		var inSum types.Amount
		for i := range tx.Inputs {
			e, err := s.checkSpend(tx, i, ctx)
			if err != nil {
				return 0, fmt.Errorf("tx %s input %d: %w", txid.Short(), i, err)
			}
			inSum += e.Value
			d.record(opSpend, tx.Inputs[i].Prev, e)
			s.del(tx.Inputs[i].Prev)
		}
		outSum := tx.OutputSum()
		if outSum > inSum {
			return 0, fmt.Errorf("tx %s: %w (%d > %d)", txid.Short(), ErrValueOverflow, outSum, inSum)
		}
		fee = inSum - outSum
	}

	// Genesis payouts (height 0) are exempt from maturity so experiment
	// workloads can spend immediately.
	isCoinbase := tx.Kind == types.TxCoinbase && ctx.Height > 0
	for i := range tx.Outputs {
		op := types.OutPoint{TxID: txid, Index: uint32(i)}
		if _, exists := s.get(op); exists {
			return 0, fmt.Errorf("%w: %v", ErrDuplicateOutput, op)
		}
		s.put(d.record(opCreate, op, Entry{
			Value:    tx.Outputs[i].Value,
			To:       tx.Outputs[i].To,
			Coinbase: isCoinbase,
			Height:   ctx.Height,
		}))
	}
	return fee, nil
}

// applyPoison revokes the culprit's unspent coinbase outputs and checks the
// poisoner's reward does not exceed the allowed fraction of the revoked
// value (§4.5: "a poison transaction grants the current leader a fraction of
// that compensation, e.g., 5%"; the rest is lost).
func (s *Set) applyPoison(tx *types.Transaction, txid crypto.Hash, ctx *BlockContext, d *Delta) error {
	culpritCB, ok := ctx.PoisonTargets[txid]
	if !ok {
		return fmt.Errorf("%w: poison %s", ErrUnknownCulprit, txid.Short())
	}
	if s.Poisoned(culpritCB) {
		// "Only one poison transaction can be placed per cheater."
		return fmt.Errorf("%w: coinbase %s", ErrAlreadyPoisoned, culpritCB.Short())
	}
	// Collect the revocable outputs first and sort them: the delta op log
	// is ordered (undo replays it back to front), and fixing it to index
	// order keeps the log, and anything derived from it, independent of how
	// the table happens to iterate. A coinbase has a handful of outputs, so
	// the full-set scan is acceptable (poison transactions are rare by
	// construction).
	var revoke []types.OutPoint
	s.Range(func(op types.OutPoint, e Entry) bool {
		if op.TxID == culpritCB && !e.Revoked {
			revoke = append(revoke, op)
		}
		return true
	})
	sort.Slice(revoke, func(i, j int) bool { return revoke[i].Index < revoke[j].Index })
	var revokedValue types.Amount
	for _, op := range revoke {
		e, _ := s.get(op)
		e.Revoked = true
		s.put(&leaf{op: op, e: e})
		d.record(opRevoke, op, Entry{})
		revokedValue += e.Value
	}
	reward := types.Amount(float64(revokedValue) * ctx.Params.PoisonRewardFrac)
	if tx.OutputSum() > reward {
		return fmt.Errorf("%w: %d > %d", ErrExcessReward, tx.OutputSum(), reward)
	}
	s.setPoisoned(culpritCB, true)
	d.record(opPoison, types.OutPoint{TxID: culpritCB}, Entry{})
	return nil
}

// ApplyBlock validates and applies a block's transactions atomically. On
// success it returns the delta record and the fee collected from each
// transaction (indexed like txs). On failure the set is unchanged.
//
// Later transactions may spend outputs created by earlier transactions in
// the same block, matching Bitcoin semantics.
func (s *Set) ApplyBlock(txs []*types.Transaction, ctx BlockContext) (*Delta, []types.Amount, error) {
	// One op per input and output: sized up front, a retained undo log
	// carries no append slack. Poison transactions add a few and may move
	// the log; leaves already linked then stay in the old array, which is
	// just as immutable.
	nOps := 0
	for _, tx := range txs {
		nOps += len(tx.Inputs) + len(tx.Outputs)
	}
	d := &Delta{ops: make([]deltaOp, 0, nOps), pre: s.version}
	before := s.freeze()
	fees := make([]types.Amount, len(txs))
	for i, tx := range txs {
		fee, err := s.applyTx(tx, &ctx, d)
		if err != nil {
			// Stand on the untouched pre-state itself. The counters take
			// the operations that reversing the applied part would make,
			// as they always have.
			s.adopt(before, d.pre, d.revokes, d.spends+d.revokes, d.creates)
			return nil, nil, fmt.Errorf("block tx %d: %w", i, err)
		}
		fees[i] = fee
	}
	d.post = mintVersion()
	d.before, d.after = weak.Make(before), weak.Make(s.label(d.post))
	return d, fees, nil
}

// RedoBlock moves the set forward over a recorded delta without any
// validation. It is only sound when the set is in the exact pre-state the
// delta was recorded against — the connect cache guarantees this by content
// addressing (equal block hash implies equal history below it). `at` names
// the block the delta came from.
//
// There are two ways across. A set whose version is the one the delta was
// recorded against adopts the recorded post-state: identity of an immutable
// version is a stronger pre-state check than any probe. A set on a
// content-equal state that another computation of the same block labelled
// differently, or arriving after the recorded state was collected, replays
// the op log, where a missing spend target means the guarantee was broken
// and panics: serving a corrupted ledger is worse than crashing. A replay
// labels its result with the delta's version, so the set is back on shared
// state at the next block.
func (s *Set) RedoBlock(d *Delta, at BlockRef) {
	s.cross(d, true)
}

// UndoBlock reverses a block application, by the same two ways as RedoBlock.
// Deltas must be undone in reverse order of the blocks they came from. `at`
// names the block being undone.
func (s *Set) UndoBlock(d *Delta, at BlockRef) {
	s.cross(d, false)
}

// cross moves the set over d, forward (redo) or backward (undo): by adopting
// the recorded state when the set stands on the version the delta starts
// from in that direction, by replaying the log otherwise.
func (s *Set) cross(d *Delta, forward bool) {
	from, to, ref := d.pre, d.post, &d.after
	// The logical operations of a replay: see redoOps and undoOps.
	gets, puts, deletes := d.spends+d.revokes, d.creates+d.revokes, d.spends
	if !forward {
		from, to, ref = d.post, d.pre, &d.before
		gets, puts, deletes = d.revokes, d.spends+d.revokes, d.creates
	}
	if s.version == from {
		if led := d.recorded(ref); led != nil {
			s.adopt(led, to, gets, puts, deletes)
			return
		}
	}
	if forward {
		s.redoOps(d)
	} else {
		s.undoOps(d)
	}
	d.publish(ref, s.label(to))
}

// redoOps replays the op log in order.
func (s *Set) redoOps(d *Delta) {
	for i := range d.ops {
		op := &d.ops[i]
		switch op.kind {
		case opCreate:
			s.put(&op.leaf)
		case opSpend:
			if _, ok := s.get(op.op); !ok {
				panic(fmt.Sprintf("utxo: redo spends missing entry %v", op.op))
			}
			s.del(op.op)
		case opRevoke:
			e, ok := s.get(op.op)
			if !ok {
				panic(fmt.Sprintf("utxo: redo revokes missing entry %v", op.op))
			}
			e.Revoked = true
			s.put(&leaf{op: op.op, e: e})
		case opPoison:
			s.setPoisoned(op.op.TxID, true)
		}
	}
}

// undoOps replays the op log back to front, inverted.
func (s *Set) undoOps(d *Delta) {
	for i := len(d.ops) - 1; i >= 0; i-- {
		op := &d.ops[i]
		switch op.kind {
		case opCreate:
			s.del(op.op)
		case opSpend:
			s.put(&op.leaf)
		case opRevoke:
			if e, ok := s.get(op.op); ok {
				e.Revoked = false
				s.put(&leaf{op: op.op, e: e})
			}
		case opPoison:
			s.setPoisoned(op.op.TxID, false)
		}
	}
}

// Poisoned reports whether the coinbase txid has been revoked by a poison
// transaction.
func (s *Set) Poisoned(coinbaseID crypto.Hash) bool {
	_, ok := s.findPoisoned(coinbaseID)
	return ok
}
