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

// Delta records one block's effect on the set: the undo record for
// disconnecting the block in a reorganization, and a redo record that replays
// it onto another set in the same pre-state without re-validating anything
// (the connect cache in internal/validate shares one Delta across every node
// that connects the block). It is immutable once ApplyBlock returns. created
// holds the block's new leaves in one slab sized to its outputs, which tables
// link directly; spent points at the leaves its inputs removed, which an undo
// relinks. A live entry thus keeps its block's slab alive until it is spent,
// and a delta the slabs it spent from: neither costs anything while the chain
// holds those blocks' undo records (compaction drops them on file stores).
// revoked and poisoned are a §4.5 poison's effects, in order.
//
// A replay puts every create, deletes every spend, revokes, then poisons;
// undo reverses each step. That is the block's effect whatever the order of
// its transactions: an outpoint is created at most once (ErrDuplicateOutput
// refuses one that is live or in the block's pre-state), so an intra-block
// chain sees its create before its spend; a revoked entry cannot be spent
// later in its block; the trie's shape, and Range order, are functions of its
// contents alone; and Stats count the same Gets, Puts and Deletes either way.
//
// A delta also references the frozen ledgers on both sides, weakly: Redo/Undo
// hand a set standing on one the other instead of replaying, yet a delta kept
// as an undo record pins no superseded ledger of a node that shares with
// nobody. A state nobody holds is gone; the next set to cross the delta
// replays it and re-publishes what it rebuilt.
type Delta struct {
	created  []leaf
	spent    []*leaf
	revoked  []types.OutPoint
	poisoned []crypto.Hash

	// pre and post are the versions before and after the block.
	pre, post Version

	mu            sync.Mutex // guards before and after (re-publication races across shards)
	before, after weak.Pointer[ledger]
}

// counts returns the numbers of created, spent and revoked entries, from
// which an adoption accounts the operations a replay would have counted.
func (d *Delta) counts() (creates, spends, revokes uint32) {
	return uint32(len(d.created)), uint32(len(d.spent)), uint32(len(d.revoked))
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
// given context and returns the entry's leaf.
func (s *Set) checkSpend(tx *types.Transaction, i int, ctx *BlockContext) (*leaf, error) {
	in := &tx.Inputs[i]
	l := s.getLeaf(in.Prev)
	if l == nil {
		return nil, fmt.Errorf("%w: %v", ErrMissingInput, in.Prev)
	}
	e := &l.e
	if e.Revoked {
		return nil, fmt.Errorf("%w: %v", ErrRevokedInput, in.Prev)
	}
	if tx.InputAddr(i) != e.To {
		return nil, fmt.Errorf("%w: %v", ErrWrongOwner, in.Prev)
	}
	if e.Coinbase && ctx.Height-e.Height < uint64(ctx.Params.CoinbaseMaturity) {
		return nil, fmt.Errorf("%w: %v at height %d, needs %d confirmations",
			ErrImmature, in.Prev, e.Height, ctx.Params.CoinbaseMaturity)
	}
	return l, nil
}

// applyTx validates and applies one transaction of a block whose pre-state is
// pre, adding its effects to the delta. Signature validity is intrinsic
// (checked by CheckWellFormed before the block reaches the state machine);
// applyTx checks the contextual rules.
func (s *Set) applyTx(tx *types.Transaction, ctx *BlockContext, d *Delta, pre *ledger) (fee types.Amount, err error) {
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
			l, err := s.checkSpend(tx, i, ctx)
			if err != nil {
				return 0, fmt.Errorf("tx %s input %d: %w", txid.Short(), i, err)
			}
			inSum += l.e.Value
			d.spent = append(d.spent, l)
			s.del(l.op)
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
		// One the pre-state held and this block spent is a duplicate too.
		if s.getLeaf(op) != nil || pre.root.get(&op, pathOf(&op)) != nil {
			return 0, fmt.Errorf("%w: %v", ErrDuplicateOutput, op)
		}
		d.created = append(d.created, leaf{op: op, e: Entry{
			Value:    tx.Outputs[i].Value,
			To:       tx.Outputs[i].To,
			Coinbase: isCoinbase,
			Height:   ctx.Height,
		}})
		s.put(&d.created[len(d.created)-1])
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
	// Collect the revocable outputs first and sort them: fixing the delta's
	// revocations to index order keeps them, and anything derived from them,
	// independent of how the table happens to iterate. A coinbase has a
	// handful of outputs, so the full-set scan is acceptable (poison
	// transactions are rare by construction).
	start := len(d.revoked)
	s.Range(func(op types.OutPoint, e Entry) bool {
		if op.TxID == culpritCB && !e.Revoked {
			d.revoked = append(d.revoked, op)
		}
		return true
	})
	revoke := d.revoked[start:]
	sort.Slice(revoke, func(i, j int) bool { return revoke[i].Index < revoke[j].Index })
	var revokedValue types.Amount
	for _, op := range revoke {
		e, _ := s.get(op)
		e.Revoked = true
		s.put(&leaf{op: op, e: e})
		revokedValue += e.Value
	}
	reward := types.Amount(float64(revokedValue) * ctx.Params.PoisonRewardFrac)
	if tx.OutputSum() > reward {
		return fmt.Errorf("%w: %d > %d", ErrExcessReward, tx.OutputSum(), reward)
	}
	s.setPoisoned(culpritCB, true)
	d.poisoned = append(d.poisoned, culpritCB)
	return nil
}

// ApplyBlock validates and applies a block's transactions atomically. On
// success it returns the delta record and the fee collected from each
// transaction (indexed like txs). On failure the set is unchanged.
//
// Later transactions may spend outputs created by earlier transactions in
// the same block, matching Bitcoin semantics.
func (s *Set) ApplyBlock(txs []*types.Transaction, ctx BlockContext) (*Delta, []types.Amount, error) {
	// The created slab is sized to the block's outputs, so it never moves
	// once the table links its leaves, and a retained undo record carries
	// no append slack; the spent list likewise.
	nIn, nOut := 0, 0
	for _, tx := range txs {
		nIn += len(tx.Inputs)
		nOut += len(tx.Outputs)
	}
	d := &Delta{created: make([]leaf, 0, nOut), spent: make([]*leaf, 0, nIn), pre: s.version}
	before := s.freeze()
	fees := make([]types.Amount, len(txs))
	for i, tx := range txs {
		fee, err := s.applyTx(tx, &ctx, d, before)
		if err != nil {
			// Stand on the untouched pre-state itself. The counters take
			// the operations that reversing the applied part would make,
			// as they always have.
			creates, spends, revokes := d.counts()
			s.adopt(before, d.pre, revokes, spends+revokes, creates)
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
// the delta, where a missing spend target means the guarantee was broken
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
// from in that direction, by replaying the delta otherwise.
func (s *Set) cross(d *Delta, forward bool) {
	from, to, ref := d.pre, d.post, &d.after
	// The logical operations of a replay: see redoOps and undoOps.
	creates, spends, revokes := d.counts()
	gets, puts, deletes := spends+revokes, creates+revokes, spends
	if !forward {
		from, to, ref = d.post, d.pre, &d.before
		gets, puts, deletes = revokes, spends+revokes, creates
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

// redoOps replays the delta forward: creates, spends, revocations, poison
// marks (see Delta for why that order is the block's).
func (s *Set) redoOps(d *Delta) {
	for i := range d.created {
		s.put(&d.created[i])
	}
	for _, l := range d.spent {
		if s.getLeaf(l.op) == nil {
			panic(fmt.Sprintf("utxo: redo spends missing entry %v", l.op))
		}
		s.del(l.op)
	}
	for _, op := range d.revoked {
		e, ok := s.get(op)
		if !ok {
			panic(fmt.Sprintf("utxo: redo revokes missing entry %v", op))
		}
		e.Revoked = true
		s.put(&leaf{op: op, e: e})
	}
	for _, id := range d.poisoned {
		s.setPoisoned(id, true)
	}
}

// undoOps reverses redoOps step by step, back to front: it lifts the poison
// marks and revocations, relinks the very leaves the block spent, and
// removes what it created.
func (s *Set) undoOps(d *Delta) {
	for i := len(d.poisoned) - 1; i >= 0; i-- {
		s.setPoisoned(d.poisoned[i], false)
	}
	for i := len(d.revoked) - 1; i >= 0; i-- {
		op := d.revoked[i]
		if e, ok := s.get(op); ok {
			e.Revoked = false
			s.put(&leaf{op: op, e: e})
		}
	}
	for i := len(d.spent) - 1; i >= 0; i-- {
		s.put(d.spent[i])
	}
	for i := len(d.created) - 1; i >= 0; i-- {
		s.del(d.created[i].op)
	}
}

// Poisoned reports whether the coinbase txid has been revoked by a poison
// transaction.
func (s *Set) Poisoned(coinbaseID crypto.Hash) bool {
	_, ok := s.findPoisoned(coinbaseID)
	return ok
}
