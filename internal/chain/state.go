package chain

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"bitcoinng/internal/blockstore"
	"bitcoinng/internal/crypto"
	"bitcoinng/internal/slots"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
	"bitcoinng/internal/validate"
)

// Protocol supplies the protocol-specific validation the generic chain
// machinery calls out to. internal/bitcoin and internal/core implement it.
type Protocol interface {
	// RulesID is a stable identifier of the protocol's validation
	// semantics, including any flags that change them (e.g. whether
	// simulated proof of work is accepted). Together with the consensus
	// parameters it forms the connect-cache fingerprint, so two nodes
	// share cached connect verdicts exactly when their RulesID and Params
	// agree.
	RulesID() string

	// CheckBlock fully validates a block before it enters the tree, given
	// its resolved parent: intrinsic well-formedness (including microblock
	// signatures, which need the epoch's leader key from the parent
	// chain), timestamp rules, and the difficulty schedule. now is the
	// local clock in Unix nanoseconds.
	CheckBlock(st *State, parent *Node, b types.Block, now int64) error

	// ConnectCheck validates block economics after its transactions were
	// applied to the UTXO set: coinbase amounts against subsidy and fees
	// (fees[i] is the fee collected from transaction i). It must be a
	// pure function of the block and its ancestor chain — its verdict is
	// shared across nodes through the connect cache. Returning an error
	// rolls the application back and marks the block invalid.
	ConnectCheck(st *State, n *Node, fees []types.Amount) error

	// PoisonTargets verifies the fraud proofs of any poison transactions
	// in b and resolves each poison transaction ID to the culprit's
	// coinbase transaction ID. Protocols without poison transactions
	// return (nil, nil) for poison-free blocks and an error otherwise.
	// Like ConnectCheck, the verdict must depend only on the block and
	// its ancestor chain (everything the evidence may reference is, by
	// construction, in the connecting block's ancestry).
	PoisonTargets(st *State, parent *Node, b types.Block) (map[crypto.Hash]crypto.Hash, error)
}

// Status classifies the outcome of AddBlock.
type Status int

// AddBlock outcomes.
const (
	StatusInvalid   Status = iota // rejected by validation
	StatusDuplicate               // already known
	StatusOrphan                  // parent unknown; stashed for later
	StatusSideChain               // stored off the main chain
	StatusMainChain               // extended or became the main chain
)

var statusNames = [...]string{"invalid", "duplicate", "orphan", "sidechain", "mainchain"}

// String returns the status name.
func (s Status) String() string {
	if s >= 0 && int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// AddResult reports what AddBlock did, including the main-chain delta so the
// caller can update its mempool and emit metric events. When stashed orphans
// become connectable, their effects are folded into the same result.
//
// The State owns the result and reuses it, lists included: it is valid until
// the next AddBlock on the same State. A caller that needs any of it longer
// copies it out.
type AddResult struct {
	Status Status
	// Node is the tree node for the added block (nil for orphans,
	// duplicates, and invalid blocks).
	Node *Node
	// Added lists every block that entered the tree during the call: the
	// block itself plus any stashed orphans it unlocked. The relay and
	// metrics layers see each block exactly once through this list.
	Added []*Node
	// Connected lists blocks that joined the main chain, oldest first.
	Connected []*Node
	// Disconnected lists blocks that left the main chain, oldest first.
	Disconnected []*Node
}

// TipChanged reports whether the main chain moved.
func (r *AddResult) TipChanged() bool { return len(r.Connected) > 0 }

// reset empties r for reuse, keeping its lists' capacity.
func (r *AddResult) reset() *AddResult {
	*r = AddResult{Added: r.Added[:0], Connected: r.Connected[:0], Disconnected: r.Disconnected[:0]}
	return r
}

// maxOrphanBlocks bounds the orphan stash; beyond it the longest-waiting
// parent's bucket is dropped (the gossip layer will re-fetch if still needed).
const maxOrphanBlocks = 512

// ErrKnownInvalid refuses a block already marked invalid.
var ErrKnownInvalid = errors.New("chain: block previously marked invalid")

// UTXOStore is the ledger-state surface the chain machinery drives: exactly
// the contract extracted from *utxo.Set, its one implementation. Tests
// substitute wrappers that observe it.
type UTXOStore interface {
	// Read surface (wallets, invariants, fee resolvers).
	Lookup(op types.OutPoint) (utxo.Entry, bool)
	Len() int
	Range(fn func(op types.OutPoint, e utxo.Entry) bool)
	BalanceOf(addr crypto.Address) types.Amount
	Poisoned(coinbaseID crypto.Hash) bool
	// Mutation surface (connect/disconnect machinery).
	ApplyBlock(txs []*types.Transaction, ctx utxo.BlockContext) (*utxo.Delta, []types.Amount, error)
	RedoBlock(d *utxo.Delta, at utxo.BlockRef)
	UndoBlock(d *utxo.Delta, at utxo.BlockRef)
	// Stats exposes the ledger's operation counters for the harness's
	// quiescent-boundary store metrics.
	Stats() utxo.Stats
}

// State is a node's view of the blockchain: the block tree, the active
// (main) chain, and the UTXO set at its tip. It is not safe for concurrent
// use; each protocol node drives one from its event loop.
type State struct {
	params   types.Params
	store    *Store
	protocol Protocol
	choice   ForkChoice

	utxoSet UTXOStore
	tip     *Node

	// cache, when set, memoizes connect outcomes process-wide under fp so
	// nodes sharing rules replay each block's delta instead of recomputing
	// it. fp is derived once at construction.
	cache *validate.Cache
	fp    validate.Fingerprint
	// blocks is the table New builds the store over (nil: a private one).
	blocks *blockstore.Table

	// res is the result AddBlock returns, and sub collects one adopted
	// orphan's effects before they are folded into res; both are reused.
	res, sub AddResult

	orphans      map[crypto.Hash][]types.Block // parent hash -> waiting blocks
	orphanOrder  []crypto.Hash                 // the keys of orphans, longest-waiting first
	orphanCount  int
	invalidCount int
	// orphansEvicted counts stashed blocks the bound dropped.
	orphansEvicted int
}

// Option configures a State at construction.
type Option func(*State)

// WithConnectCache threads a shared connect cache through the state; nil
// disables caching (every connect recomputes locally).
func WithConnectCache(c *validate.Cache) Option {
	return func(st *State) { st.cache = c }
}

// WithBlockTable names the state's blocks, and keeps their headers, in a
// table shared with other states (a simulated fleet passes one per fleet);
// nil keeps a private one.
func WithBlockTable(t *blockstore.Table) Option {
	return func(st *State) { st.blocks = t }
}

// WithUTXOStore swaps the ledger storage backend; nil keeps the default
// in-memory set. The store must be empty (or freshly Reset) — New applies
// the genesis coinbase into it.
func WithUTXOStore(u UTXOStore) Option {
	return func(st *State) {
		if u != nil {
			st.utxoSet = u
		}
	}
}

// New creates a State rooted at the genesis block. The genesis coinbase is
// applied to the UTXO set (pre-funded experiment outputs live there).
func New(genesis types.Block, params types.Params, protocol Protocol, choice ForkChoice, opts ...Option) (*State, error) {
	st := &State{
		params:   params,
		protocol: protocol,
		choice:   choice,
		utxoSet:  utxo.New(),
		fp:       validate.FingerprintOf(protocol.RulesID(), params),
		orphans:  make(map[crypto.Hash][]types.Block),
	}
	for _, opt := range opts {
		opt(st)
	}
	st.store = NewStore(genesis, st.blocks)
	st.tip = st.store.Genesis()
	// Fork choices that do not declare their needs get subtree weights
	// maintained: a custom rule reading Store.SubtreeWeight must keep
	// working even if it predates the SubtreeWeighted interface.
	if sw, ok := choice.(SubtreeWeighted); !ok || sw.NeedsSubtreeWeight() {
		st.store.subtree = new(slots.Chunked[crypto.Work])
		*st.store.subtree.At(st.tip.ord) = st.tip.Weight
	}

	// Genesis application goes through the cache too: experiment genesis
	// blocks carry hundreds of pre-funded outputs, and every node of a run
	// applies the same ones.
	if err := st.connectBlock(st.tip); err != nil {
		return nil, fmt.Errorf("chain: applying genesis: %w", err)
	}
	return st, nil
}

// ConnectCacheStats reports the attached cache's counters; zero Stats when
// no cache is attached.
func (st *State) ConnectCacheStats() validate.Stats { return st.cache.Stats() }

// Params returns the consensus parameters.
func (st *State) Params() types.Params { return st.params }

// Store exposes the underlying block tree (read-only use).
func (st *State) Store() *Store { return st.store }

// Tip returns the current main-chain tip.
func (st *State) Tip() *Node { return st.tip }

// UTXO returns the UTXO store at the current tip (read-only use).
func (st *State) UTXO() UTXOStore { return st.utxoSet }

// Compact bounds the tree's resident size for long runs: it evicts archived
// block bodies (when a body source is attached; see Store.AttachBodySource)
// and drops the undo deltas of main-chain blocks buried at least keepDepth
// below the tip. Compacted blocks can no longer be disconnected — a reorg
// deeper than keepDepth panics — so callers pick keepDepth well above any
// reorganization their scenario can produce. Returns (bodies evicted, undo
// records dropped).
func (st *State) Compact(keepDepth uint64) (int, int) {
	bodies := st.store.EvictBodies(st.tip, keepDepth)
	n := st.tip
	for i := uint64(0); i < keepDepth && n != nil; i++ {
		n = n.Parent
	}
	undos := 0
	for ; n != nil && n.Parent != nil; n = n.Parent {
		v := st.store.view(n)
		if v.undo == nil {
			// Compaction nils a contiguous suffix of the main chain, so
			// the first already-nil undo means everything below is done.
			break
		}
		v.undo = nil
		undos++
	}
	return bodies, undos
}

// FeeTotal returns the total fees collected by a block when it was
// connected; zero if it never connected.
func (st *State) FeeTotal(h crypto.Hash) types.Amount {
	n, ok := st.store.Get(h)
	if !ok {
		return 0
	}
	return st.store.view(n).feeTotal
}

// EpochFeesAt sums the fees recorded for the uninterrupted run of
// microblocks ending at n (walking up until the nearest PoW/key block).
// Bitcoin-NG's coinbase validation uses it to compute the previous epoch's
// fee pot, which funds the 40/60 split (§4.4).
func (st *State) EpochFeesAt(n *Node) types.Amount {
	var total types.Amount
	for ; n != nil && n.kind == types.KindMicro; n = n.Parent {
		total += st.store.view(n).feeTotal
	}
	return total
}

// Height returns the main-chain height.
func (st *State) Height() uint64 { return st.tip.Height }

// KeyHeight returns the main-chain PoW/key-block height.
func (st *State) KeyHeight() uint64 { return st.tip.KeyHeight }

// HasBlock reports whether the block is in the tree.
func (st *State) HasBlock(h crypto.Hash) bool {
	_, ok := st.store.Get(h)
	return ok
}

// MainChainContains reports whether the block is on the active chain.
func (st *State) MainChainContains(n *Node) bool {
	return st.tip.AncestorAtHeight(n.Height) == n
}

// AddBlock validates and stores a block received at time now (Unix
// nanoseconds), running fork choice and any resulting reorganization. When
// the block's parent is unknown the block is stashed and reconsidered once
// the parent arrives; the triggering AddBlock's result then includes the
// orphans' effects. The result is valid until the next AddBlock on st.
func (st *State) AddBlock(b types.Block, now int64) (*AddResult, error) {
	res := st.res.reset()
	err := st.addOne(b, now, res)
	if err != nil || res.Status == StatusOrphan || res.Status == StatusDuplicate {
		return res, err
	}
	// Cascade: orphans waiting on this block (and on blocks they unlock).
	st.adoptOrphans(b.Hash(), now, res)
	return res, nil
}

func (st *State) addOne(b types.Block, now int64, res *AddResult) error {
	h := b.Hash()
	if _, ok := st.store.Get(h); ok {
		res.Status = StatusDuplicate
		return nil
	}
	parent, ok := st.store.Get(b.PrevHash())
	if !ok {
		res.Status = StatusOrphan
		st.stashOrphan(b)
		return nil
	}
	if st.store.invalid.Has(parent.ord) {
		res.Status = StatusInvalid
		return ErrKnownInvalid
	}
	if !st.AdoptStage1(b) {
		validate.SharedPool().WarmBlock(b)
	}
	if err := st.protocol.CheckBlock(st, parent, b, now); err != nil {
		res.Status = StatusInvalid
		return err
	}
	n := st.store.Insert(b, now)
	res.Node = n
	res.Added = append(res.Added, n)

	best := st.choice.Best(st.store, st.tip, n)
	if best == st.tip {
		res.Status = StatusSideChain
		return nil
	}
	if err := st.reorgTo(best, res); err != nil {
		// The failing block was marked invalid and the previous chain
		// restored; surface the error but keep serving.
		res.Status = StatusInvalid
		return err
	}
	res.Status = StatusMainChain
	return nil
}

// AdoptStage1 spares a block object this process already verified from being
// verified again. When b is cold (types.Stage1Cold: a fresh decode — an index
// replay, a sync of a block connected in an earlier life) and the connect
// cache holds a positive result under exactly (b's hash, b's parent, these
// rules), b's transactions are marked signature-checked, provided they fold to
// the header's Merkle root (types.AdoptSignatures gives the argument). Entries
// are stored by connectBlock alone, which only sees blocks that passed
// CheckBlock on their way into the tree — except genesis, connected by New
// unchecked, whose entry therefore vouches for nothing. CheckBlock runs
// afterwards as always and repeats everything but the signature checks.
//
// It reports whether b needs no signature verification any more — it was warm
// already, or was vouched for — and addOne hands the rest to the worker pool
// before CheckBlock runs, so a cold block verifies its signatures in parallel
// off the serial connect: an index replay, a sync batch, a chain loaded by
// hand. The gate on a cold memo is what keeps this free for simulated fleets:
// their nodes share warm block objects, and folding a Merkle root on each of
// their connects costs more than the cache saves.
func (st *State) AdoptStage1(b types.Block) bool {
	if !types.Stage1Cold(b) {
		return true
	}
	parent := b.PrevHash()
	if parent.IsZero() || !st.cache.Vouches(validate.Key{Block: b.Hash(), Parent: parent, Rules: st.fp}) {
		return false
	}
	n, ok := types.AdoptSignatures(b)
	if ok {
		st.cache.CountVouched(n)
	}
	return ok
}

// OrphansEvicted returns how many stashed blocks the orphan bound has dropped.
func (st *State) OrphansEvicted() int { return st.orphansEvicted }

// stashOrphan parks b until its parent arrives. At the bound the bucket of
// the parent that has waited longest goes, whole: arrival order, not map
// order, so every run of a seed evicts the same blocks.
func (st *State) stashOrphan(b types.Block) {
	if st.orphanCount >= maxOrphanBlocks {
		oldest := st.orphanOrder[0]
		st.orphanOrder = st.orphanOrder[1:]
		st.orphanCount -= len(st.orphans[oldest])
		st.orphansEvicted += len(st.orphans[oldest])
		delete(st.orphans, oldest)
	}
	// Duplicate stashes are harmless (addOne dedups on adoption).
	parent := b.PrevHash()
	if _, waiting := st.orphans[parent]; !waiting {
		st.orphanOrder = append(st.orphanOrder, parent)
	}
	st.orphans[parent] = append(st.orphans[parent], b)
	st.orphanCount++
}

func (st *State) adoptOrphans(parent crypto.Hash, now int64, res *AddResult) {
	queue := []crypto.Hash{parent}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		bucket := st.orphans[h]
		if len(bucket) == 0 {
			continue
		}
		delete(st.orphans, h)
		st.orphanOrder = slices.DeleteFunc(st.orphanOrder, func(p crypto.Hash) bool { return p == h })
		st.orphanCount -= len(bucket)
		for _, b := range bucket {
			sub := st.sub.reset()
			// Validation errors on orphans are swallowed: the sender
			// of an invalid orphan is long gone.
			if err := st.addOne(b, now, sub); err != nil {
				continue
			}
			res.Added = append(res.Added, sub.Added...)
			res.Connected = append(res.Connected, sub.Connected...)
			res.Disconnected = append(res.Disconnected, sub.Disconnected...)
			if sub.Status == StatusMainChain {
				res.Status = StatusMainChain
			}
			queue = append(queue, b.Hash())
		}
	}
}

// reorgTo moves the active chain to target, disconnecting back to the
// common ancestor and connecting forward. On a connect failure the failing
// block's subtree is marked invalid, the previous chain is restored, and
// fork choice re-runs over the remaining valid tree.
func (st *State) reorgTo(target *Node, res *AddResult) error {
	oldTip := st.tip
	anc := CommonAncestor(oldTip, target)

	// The paths are built straight into res's lists, and taken back out if
	// the connect fails.
	d0, c0 := len(res.Disconnected), len(res.Connected)
	res.Disconnected = appendPath(res.Disconnected, anc, oldTip)
	res.Connected = appendPath(res.Connected, anc, target)
	down, up := res.Disconnected[d0:], res.Connected[c0:]

	// Disconnect oldTip..anc.
	for i := len(down) - 1; i >= 0; i-- {
		st.disconnectBlock(down[i])
	}

	// Connect anc..target.
	for i, n := range up {
		if err := st.connectBlock(n); err != nil {
			// Roll back the partial connect and restore the old chain.
			for j := i - 1; j >= 0; j-- {
				st.disconnectBlock(up[j])
			}
			for _, m := range down {
				if cerr := st.connectBlock(m); cerr != nil {
					// The old chain was valid moments ago; failure here
					// means corrupted state, which cannot be served.
					panic(fmt.Sprintf("chain: cannot restore previous chain: %v", cerr))
				}
			}
			st.markInvalid(n)
			res.Disconnected, res.Connected = res.Disconnected[:d0], res.Connected[:c0]
			// Another branch may now be best; retry (terminates: every
			// retry permanently invalidates at least one node).
			if best := st.bestValidTip(); best != st.tip {
				if rerr := st.reorgTo(best, res); rerr == nil {
					return err // original cause, but chain moved on
				}
			}
			return err
		}
	}
	st.tip = target
	return nil
}

// connectBlock advances the UTXO set over n. The outcome is a pure function
// of (block hash, parent hash, rules fingerprint) — the block hash commits
// to the whole history below it — so it is memoized in the connect cache:
// the first node to connect a block computes, every later node (and every
// reorg that re-connects it) takes the recorded delta, which a memory-backed
// ledger on the recorded version adopts whole. The genesis node connects the
// same way (no parent, no economics).
func (st *State) connectBlock(n *Node) error {
	ref := utxo.BlockRef{Block: n.Hash()}
	if n.Parent != nil {
		ref.Parent = n.Parent.Hash()
	}
	key := validate.Key{Block: ref.Block, Parent: ref.Parent, Rules: st.fp}
	res, hit := st.cache.Lookup(key)
	if !hit {
		res = st.computeConnect(n, ref)
		if kept := st.cache.Store(key, res); kept != res {
			// Lost a race: another state missed on this block in the same
			// window and stored its result first. The two are equal by
			// purity but are different deltas with different ledger
			// versions; continuing on ours would leave this node replaying
			// every later block instead of adopting it. Step back and cross
			// the kept delta like any hit.
			if res.Err == nil {
				st.utxoSet.UndoBlock(res.Delta, ref)
				hit = true
			}
			res = kept
		}
	}
	if res.Err != nil {
		return res.Err
	}
	if hit {
		st.utxoSet.RedoBlock(res.Delta, ref)
	}
	v := st.store.view(n)
	v.undo, v.feeTotal = res.Delta, res.FeeTotal
	st.tip = n
	return nil
}

// computeConnect runs the full connect stage: poison evidence, transaction
// application, economic checks. On success the UTXO set is left advanced
// over the block (the recorded delta describes exactly that advance); on
// failure it is left untouched. The genesis block has no evidence to resolve
// and no economics to check: its coinbase is the experiment's funding.
func (st *State) computeConnect(n *Node, ref utxo.BlockRef) *validate.ConnectResult {
	fail := func(err error) *validate.ConnectResult {
		return &validate.ConnectResult{Err: fmt.Errorf("block %s: %w", n.Hash().Short(), err)}
	}
	genesis := n.Parent == nil
	ctx := utxo.BlockContext{Height: n.KeyHeight, Params: st.params, Ref: ref}
	if !genesis {
		targets, err := st.protocol.PoisonTargets(st, n.Parent, n.Block())
		if err != nil {
			return fail(err)
		}
		ctx.PoisonTargets = targets
	}
	u, fees, err := st.utxoSet.ApplyBlock(n.Block().Transactions(), ctx)
	if err != nil {
		return fail(err)
	}
	if !genesis {
		if err := st.protocol.ConnectCheck(st, n, fees); err != nil {
			st.utxoSet.UndoBlock(u, ref)
			return fail(err)
		}
	}
	var total types.Amount
	for _, f := range fees {
		total += f
	}
	return &validate.ConnectResult{Delta: u, FeeTotal: total}
}

func (st *State) disconnectBlock(n *Node) {
	v := st.store.view(n)
	if v.undo == nil {
		panic("chain: disconnecting block without undo record (reorg deeper than the compaction horizon?)")
	}
	st.utxoSet.UndoBlock(v.undo, utxo.BlockRef{Block: n.Hash(), Parent: n.Parent.Hash()})
	v.undo = nil
	st.tip = n.Parent
}

// markInvalid flags n and its entire subtree invalid.
func (st *State) markInvalid(n *Node) {
	st.store.invalid.Add(n.ord)
	st.invalidCount++
	for c := range st.store.Children(n) {
		st.markInvalid(c)
	}
}

// bestValidTip linearly scans the tree for the best non-invalid tip using
// heaviest-weight/first-seen ordering. Only the rare invalid-block recovery
// path uses it. ReceivedAt is a caller-supplied timestamp and is not unique
// (two blocks can arrive at the same simulated nanosecond), so the fold
// breaks full ties on block hash. The walk runs in ordinal order, which is
// interning order and so, in a parallel run, scheduling order: only a fold
// over a strict total order (weight, height, receivedAt, hash) makes the
// adopted tip independent of it.
func (st *State) bestValidTip() *Node {
	best := st.store.view(st.store.Genesis())
	for o := range int32(st.store.blocks.Len()) {
		v := st.store.views.Get(o)
		if v == nil || v.node == nil || st.store.invalid.Has(o) {
			continue
		}
		n, b := v.node, best.node
		switch n.Weight.Cmp(b.Weight) {
		case 1:
			best = v
		case 0:
			if n.Height > b.Height ||
				(n.Height == b.Height && v.receivedAt < best.receivedAt) ||
				(n.Height == b.Height && v.receivedAt == best.receivedAt &&
					bytes.Compare(n.hash[:], b.hash[:]) < 0) {
				best = v
			}
		}
	}
	return best.node
}

// MainChain returns the active chain from genesis to tip, inclusive.
func (st *State) MainChain() []*Node {
	out := make([]*Node, 0, st.tip.Height+1)
	for n := st.tip; n != nil; n = n.Parent {
		out = append(out, n)
	}
	slices.Reverse(out)
	return out
}
