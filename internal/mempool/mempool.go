// Package mempool holds transactions awaiting serialization into blocks.
//
// Experiments follow the paper's methodology (§7 "No Transaction
// Propagation"): every node's pool is pre-loaded with the same set of
// identical-size artificial transactions before the run, and no
// transactions are relayed while it executes. The pool nevertheless
// implements the full lifecycle a real deployment needs — conflict
// detection, confirmation removal, reorg reinsertion, fee-indexed
// selection, and bounded admission with deterministic eviction — because
// the live TCP node and the sustained-load engine use it too.
//
// Refusals are the bare sentinel errors below, never wrapped or formatted:
// on a relaying mesh almost every delivery is a duplicate whose error the
// caller drops, so a refusal must cost a map probe and nothing else. A
// caller that reports the error to a person adds the transaction id there
// (node.Base.SubmitTx does).
//
// A confirmed transaction leaves a tombstone in the pool's index for
// tombGenerations calls of RemoveConfirmed, so a relayed copy that arrives
// after its block connected is refused by the same duplicate probe instead
// of being pooled and relayed again. Nothing else sees a tombstone.
//
// Both indexes map 8-byte keys to entries, so a probe takes the runtime's
// 64-bit map path and a slot is 16 bytes: transactions by their ID's first 8
// bytes, claimed inputs by a mix of the outpoint's ID prefix and index. A
// hit is confirmed against the entry (its ID, or its inputs). An ID or
// outpoint whose key is already held goes into a small exact-keyed spill
// map, read only while it is non-empty. Go seeds every map's hash, so
// grinding keys cannot lengthen probes; an 8-byte collision among a peer's
// own transactions costs it about 2^32 hashes and only lands in the spill
// map, and one with an honest ID costs 2^64. No index is ever ranged over.
package mempool

import (
	"encoding/binary"
	"errors"
	"slices"
	"sort"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// Pool errors. Add returns them as they are; test with errors.Is.
var (
	ErrDuplicate = errors.New("mempool: transaction already present")
	ErrConflict  = errors.New("mempool: input already spent by pooled transaction")
	ErrKind      = errors.New("mempool: only regular transactions are pooled")
	ErrPoolFull  = errors.New("mempool: pool full and fee rate below everything pooled")
)

// FeeResolver reports the value of a spent output, when known. The node
// wires it to its UTXO view; the pool additionally resolves parents pooled
// ahead of their children (chained streams), so most fees are exact. A
// transaction with any unresolvable input gets fee 0 — it still pools, at
// the lowest priority.
type FeeResolver func(types.OutPoint) (types.Amount, bool)

// Limits bounds the pool; zero fields are unlimited.
type Limits struct {
	MaxTxs   int
	MaxBytes int
}

// Stats is a point-in-time pool summary.
type Stats struct {
	Txs       int
	Bytes     int
	Evictions uint64 // transactions shed by bounded admission so far
	Rejected  uint64 // additions refused with ErrPoolFull so far
}

// txKey and spendKey are the indexes' 8-byte keys; variables so that tests
// can make them collide.
var (
	txKey    = func(id crypto.Hash) uint64 { return binary.LittleEndian.Uint64(id[:8]) }
	spendKey = func(op types.OutPoint) uint64 {
		return binary.LittleEndian.Uint64(op.TxID[:8]) ^ uint64(op.Index)*0x9e3779b97f4a7c15
	}
)

// tombGenerations is how many RemoveConfirmed calls (one per tip change) a
// tombstone outlives: a stale relayed copy trails its block by at most the
// relay queue delay, which stays below one microblock interval (4.7 s of
// 10 s on blast16, under 0.6 s of 2 s at the smallest interval measured), so
// it lands before the next-but-one tip change.
const tombGenerations = 2

// entry is one pooled transaction with its selection metadata, or the
// tombstone of a confirmed one (tx nil, gen set, in no bucket).
type entry struct {
	id   crypto.Hash
	tx   *types.Transaction // nil for a tombstone
	size int
	rate int64 // fee per 1000 bytes; 0 when the fee could not be resolved
	bkt  *bucket
	pos  int    // index in bkt.order (maintained by compaction)
	gen  uint64 // generation a tombstone was laid in
}

// bucket is the FIFO of one fee rate. Removed entries are nil'd in place
// and compacted once they dominate.
type bucket struct {
	rate  int64
	order []*entry
	live  int
}

// Pool is a fee-indexed transaction pool: selection takes buckets in
// descending fee-rate order, FIFO within a bucket, so equal-fee workloads
// (and pools without a fee resolver, where every rate is 0) retain the
// classic arrival-order policy. It is not safe for concurrent use; each
// node owns one and drives it from its event loop.
type Pool struct {
	// txs holds pooled entries and tombstones by txKey, spends each claimed
	// input's claiming entry by spendKey; an entry or claim whose key was
	// held when it arrived is in the spill map instead, never in both.
	txs        map[uint64]*entry
	spends     map[uint64]*entry
	txSpill    map[crypto.Hash]*entry
	spendSpill map[types.OutPoint]*entry

	buckets map[int64]*bucket
	rates   []int64 // bucket keys, sorted descending; never map order

	// gen counts RemoveConfirmed calls; tombs[g%tombGenerations] lists the
	// tombstones laid in generation g, purged when generation
	// g+tombGenerations begins. A listed entry may since have been revived
	// or recycled: purge skips any that is no longer a tombstone of g.
	gen   uint64
	tombs [tombGenerations][]*entry
	// free holds zeroed entries (purged tombstones, removed or evicted
	// transactions) for Add and RemoveConfirmed to reuse.
	free []*entry
	// spare is the FIFO array a bucket gave up most recently (dropped when
	// emptied, or re-homed by compaction), cleared so it pins no
	// transaction; spareBkt is the last dropped bucket. A bucket that
	// would regrow its FIFO moves into spare instead, so a pool that a
	// microblock empties every interval refills without allocating.
	spare    []*entry
	spareBkt *bucket

	live     int // pooled entries indexed (tombstones excluded)
	bytes    int
	limits   Limits
	resolver FeeResolver

	evictions uint64
	rejected  uint64

	// minSize is a lower bound on the wire size of any pooled transaction
	// (0 = empty/unknown). Select stops scanning once its remaining budget
	// drops below it: nothing further can fit. The bound may go stale low
	// when the smallest transaction is removed — that only delays the
	// early exit, never skips a fitting transaction — and compact
	// re-tightens it.
	minSize int
}

// New returns an empty, unbounded pool with no fee resolver (pure FIFO).
func New() *Pool {
	return &Pool{
		txs:        make(map[uint64]*entry),
		spends:     make(map[uint64]*entry),
		txSpill:    make(map[crypto.Hash]*entry),
		spendSpill: make(map[types.OutPoint]*entry),
		buckets:    make(map[int64]*bucket),
	}
}

// SetLimits bounds the pool. Admission over the bound sheds the newest
// entry of the lowest-rate bucket (deterministic), or rejects the newcomer
// with ErrPoolFull when its own rate does not beat the floor.
func (p *Pool) SetLimits(l Limits) { p.limits = l }

// SetFeeResolver wires previous-output lookup for fee-rate indexing.
func (p *Pool) SetFeeResolver(r FeeResolver) { p.resolver = r }

// Stats returns a point-in-time summary.
func (p *Pool) Stats() Stats {
	return Stats{Txs: p.live, Bytes: p.bytes, Evictions: p.evictions, Rejected: p.rejected}
}

// Len returns the number of pooled transactions.
func (p *Pool) Len() int { return p.live }

// Known reports whether txid is pooled or was confirmed within the last
// tombGenerations generations: exactly the transactions Add refuses with
// ErrDuplicate. It lets a caller skip checking a relayed copy it would drop.
func (p *Pool) Known(txid crypto.Hash) bool { return p.lookup(txid) != nil }

// Get returns the pooled transaction with ID txid, or nil (a tombstone holds
// no body).
func (p *Pool) Get(txid crypto.Hash) *types.Transaction {
	if e := p.lookup(txid); e != nil {
		return e.tx
	}
	return nil
}

// lookup returns txid's entry, pooled or tombstone, or nil.
func (p *Pool) lookup(txid crypto.Hash) *entry {
	if e := p.txs[txKey(txid)]; e != nil && e.id == txid {
		return e
	}
	if len(p.txSpill) > 0 {
		return p.txSpill[txid]
	}
	return nil
}

// put files e under key k, or under its exact key x in spill when k is held.
func put[X comparable](index map[uint64]*entry, spill map[X]*entry, k uint64, x X, e *entry) {
	if _, held := index[k]; held {
		spill[x] = e
	} else {
		index[k] = e
	}
}

// drop undoes put for an entry that was filed under x. An entry's claims are
// put and dropped in input order, so when two of its inputs share a key, the
// first is the one that may hold the slot, and the second always spills.
func drop[X comparable](index map[uint64]*entry, spill map[X]*entry, k uint64, x X, e *entry) {
	if index[k] == e {
		delete(index, k)
	} else {
		delete(spill, x)
	}
}

// claimant returns the pooled entry that spends op, or nil.
func (p *Pool) claimant(op types.OutPoint) *entry {
	if e := p.spends[spendKey(op)]; e != nil {
		for i := range e.tx.Inputs {
			if e.tx.Inputs[i].Prev == op {
				return e
			}
		}
	}
	if len(p.spendSpill) > 0 {
		return p.spendSpill[op]
	}
	return nil
}

// feeRate resolves tx's fee and converts it to a per-1000-byte rate.
// Inputs resolve against pooled parents first, then against the node's UTXO
// view; any unresolved input zeroes the fee. The order only saves the
// resolver's walk: a pooled parent's outputs carry the values the ledger
// gives them once it connects.
func (p *Pool) feeRate(tx *types.Transaction, size int) int64 {
	if p.resolver == nil || size <= 0 {
		return 0
	}
	var in types.Amount
	for i := range tx.Inputs {
		prev := tx.Inputs[i].Prev
		var v types.Amount
		ok := false
		if parent := p.lookup(prev.TxID); parent != nil && parent.tx != nil && int(prev.Index) < len(parent.tx.Outputs) {
			v, ok = parent.tx.Outputs[prev.Index].Value, true
		} else {
			v, ok = p.resolver(prev)
		}
		if !ok {
			return 0
		}
		in += v
	}
	var out types.Amount
	for i := range tx.Outputs {
		out += tx.Outputs[i].Value
	}
	fee := in - out
	if fee <= 0 {
		return 0
	}
	return int64(fee) * 1000 / int64(size)
}

// bucketFor returns (creating if needed) the bucket of one rate, keeping
// the descending rate index sorted.
func (p *Pool) bucketFor(rate int64) *bucket {
	if b, ok := p.buckets[rate]; ok {
		return b
	}
	b := p.spareBkt
	if b == nil {
		b = new(bucket)
	}
	p.spareBkt = nil
	b.rate = rate
	p.buckets[rate] = b
	i := sort.Search(len(p.rates), func(i int) bool { return p.rates[i] <= rate })
	p.rates = append(p.rates, 0)
	copy(p.rates[i+1:], p.rates[i:])
	p.rates[i] = rate
	return b
}

// dropBucket removes an emptied bucket from the rate index and keeps it for
// the next bucketFor, its FIFO array as the spare.
func (p *Pool) dropBucket(b *bucket) {
	delete(p.buckets, b.rate)
	if i := slices.Index(p.rates, b.rate); i >= 0 {
		p.rates = slices.Delete(p.rates, i, i+1)
	}
	p.keepSpare(b.order)
	*b = bucket{}
	p.spareBkt = b
}

// keepSpare makes arr, cleared, the pool's spare when its bucket used at
// least a quarter of it since it last moved, and otherwise lets both arr
// and the old spare go: a pool that once burst shrinks back to its working
// set, as compaction intends.
func (p *Pool) keepSpare(arr []*entry) {
	p.spare = nil
	if cap(arr) <= 4*len(arr) {
		clear(arr[:cap(arr)])
		p.spare = arr[:0]
	}
}

// push appends e to b's FIFO. When the array is full and the spare is
// larger, the entries move into the spare rather than into a fresh array.
func (p *Pool) push(b *bucket, e *entry) {
	if len(b.order) == cap(b.order) && cap(p.spare) > len(b.order) {
		b.order = append(p.spare, b.order...)
		p.spare = nil
	}
	b.order = append(b.order, e)
}

// Add inserts a well-formed regular transaction, rejecting duplicates and
// transactions that double-spend an input already claimed in the pool.
// Validation against the UTXO set is the block assembler's job (a pooled
// transaction can become invalid later through a conflicting confirmation).
// When limits are set, admission may evict lower-priority entries or return
// ErrPoolFull. Every refusal is a bare sentinel (ErrKind, ErrDuplicate,
// ErrConflict, ErrPoolFull) and allocates nothing. A transaction confirmed
// within the last tombGenerations generations is a duplicate too.
func (p *Pool) Add(tx *types.Transaction) error {
	if tx.Kind != types.TxRegular {
		return ErrKind
	}
	txid := tx.ID()
	if p.lookup(txid) != nil {
		return ErrDuplicate
	}
	for i := range tx.Inputs {
		if p.claimant(tx.Inputs[i].Prev) != nil {
			return ErrConflict
		}
	}
	size := tx.WireSize()
	rate := p.feeRate(tx, size)
	if err := p.makeRoom(size, rate); err != nil {
		p.rejected++
		return err
	}
	b := p.bucketFor(rate)
	e := p.newEntry()
	*e = entry{id: txid, tx: tx, size: size, rate: rate, bkt: b, pos: len(b.order)}
	p.push(b, e)
	b.live++
	put(p.txs, p.txSpill, txKey(txid), txid, e)
	for i := range tx.Inputs {
		op := tx.Inputs[i].Prev
		put(p.spends, p.spendSpill, spendKey(op), op, e)
	}
	p.live++
	p.bytes += size
	if p.minSize == 0 || size < p.minSize {
		p.minSize = size
	}
	return nil
}

// makeRoom enforces the limits for an incoming (size, rate): it evicts the
// newest entry of the lowest-rate bucket while the newcomer strictly beats
// that floor, and rejects with ErrPoolFull otherwise. Shedding newest-first
// keeps the oldest (longest-waiting) transactions confirmable and makes
// overload behaviour independent of map iteration.
func (p *Pool) makeRoom(size int, rate int64) error {
	if p.limits.MaxTxs <= 0 && p.limits.MaxBytes <= 0 {
		return nil
	}
	over := func() bool {
		if p.limits.MaxTxs > 0 && p.live+1 > p.limits.MaxTxs {
			return true
		}
		return p.limits.MaxBytes > 0 && p.bytes+size > p.limits.MaxBytes
	}
	for over() {
		victim := p.newestLowest()
		if victim == nil || victim.rate >= rate {
			return ErrPoolFull
		}
		p.removeEntry(victim)
		p.evictions++
	}
	return nil
}

// newestLowest returns the most recent entry of the lowest-rate bucket.
func (p *Pool) newestLowest() *entry {
	for i := len(p.rates) - 1; i >= 0; i-- {
		b := p.buckets[p.rates[i]]
		for j := len(b.order) - 1; j >= 0; j-- {
			if b.order[j] != nil {
				return b.order[j]
			}
		}
	}
	return nil
}

// Select returns pooled transactions in descending fee-rate order (FIFO
// within a rate) whose serialized sizes fit within maxBytes, skipping (not
// evicting) transactions that do not fit. With no fee resolver every rate
// is 0 and this is the classic deterministic FIFO block-filling policy.
//
// Two fast paths keep a busy node's per-block cost proportional to what it
// selects rather than to pool history: the scan stops once the remaining
// budget cannot fit even the smallest pooled transaction, and a lazy-deleted
// tail that has come to dominate a bucket triggers compaction before the
// scan instead of waiting for the next RemoveConfirmed.
func (p *Pool) Select(maxBytes int) []*types.Transaction {
	p.compact(false)
	var out []*types.Transaction
	remaining := maxBytes
scan:
	for _, r := range p.rates {
		b := p.buckets[r]
		for _, e := range b.order {
			if remaining < p.minSize {
				break scan // nothing pooled is small enough to fit
			}
			if e == nil {
				continue // lazily skip removed entries
			}
			if e.size > remaining {
				continue
			}
			out = append(out, e.tx)
			remaining -= e.size
		}
	}
	return out
}

// RemoveConfirmed drops the given transactions (the contents of the blocks
// one tip change connected), leaving a tombstone for each regular one, and
// drops any pooled transaction that conflicts with them on an input. Each
// call is one generation: it first purges the tombstones laid
// tombGenerations calls ago, so a caller connecting several blocks at once
// must pass them in one call.
func (p *Pool) RemoveConfirmed(txs []*types.Transaction) {
	p.age()
	for _, tx := range txs {
		if tx.Kind == types.TxRegular && p.bury(tx.ID()) {
			continue // its inputs were its own claims, released by unlink
		}
		// Evict pool entries that spend the same inputs.
		for i := range tx.Inputs {
			if owner := p.claimant(tx.Inputs[i].Prev); owner != nil {
				p.removeEntry(owner)
			}
		}
	}
	p.compact(false)
}

// Reinsert returns transactions to the pool after the block containing them
// was disconnected in a reorganization, clearing their tombstones first.
// Conflicting entries that arrived in the meantime win; reinsertion is
// best-effort, as in Bitcoin.
func (p *Pool) Reinsert(txs []*types.Transaction) {
	for _, tx := range txs {
		if tx.Kind != types.TxRegular {
			continue // coinbases and poisons die with their block
		}
		if e := p.lookup(tx.ID()); e != nil && e.tx == nil {
			p.release(e)
		}
		_ = p.Add(tx)
	}
}

// age starts a new generation, purging the tombstones laid tombGenerations
// generations ago.
func (p *Pool) age() {
	p.gen++
	slot := &p.tombs[p.gen%tombGenerations]
	// An entry listed here that is no longer a tombstone of generation old
	// was revived or recycled since. (A zeroed free entry has gen 0, and no
	// tombstone is laid in generation 0.)
	old := p.gen - tombGenerations
	for _, e := range *slot {
		if e.tx == nil && e.gen == old {
			p.release(e)
		}
	}
	*slot = (*slot)[:0]
}

// bury turns txid's pooled entry into a tombstone of the current
// generation, or lays a fresh one if the pool never held it. It reports
// whether txid was pooled. The entry keeps its ID, so it stays indexed
// where it was.
func (p *Pool) bury(txid crypto.Hash) (pooled bool) {
	e := p.lookup(txid)
	switch {
	case e == nil:
		e = p.newEntry()
		e.id = txid
		put(p.txs, p.txSpill, txKey(txid), txid, e)
	case e.tx != nil:
		p.unlink(e)
		pooled = true
	case e.gen == p.gen:
		return false // already laid this generation
	}
	*e = entry{id: txid, gen: p.gen}
	slot := &p.tombs[p.gen%tombGenerations]
	*slot = append(*slot, e)
	return pooled
}

// newEntry takes a recycled entry, or allocates one when none is free.
func (p *Pool) newEntry() *entry {
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		return e
	}
	return new(entry)
}

// release deletes e's index slot and recycles it, zeroed so it pins no
// transaction.
func (p *Pool) release(e *entry) {
	drop(p.txs, p.txSpill, txKey(e.id), e.id, e)
	*e = entry{}
	p.free = append(p.free, e)
}

// removeEntry drops a pooled transaction outright (eviction, conflict).
func (p *Pool) removeEntry(e *entry) {
	p.unlink(e)
	p.release(e)
}

// unlink takes a pooled entry out of its bucket, the spend index and the
// counts; its ID's index slot stays.
func (p *Pool) unlink(e *entry) {
	for i := range e.tx.Inputs {
		op := e.tx.Inputs[i].Prev
		drop(p.spends, p.spendSpill, spendKey(op), op, e)
	}
	p.bytes -= e.size
	// Clear the slot immediately: a removed entry (and the transaction it
	// pins) must not stay reachable from the bucket's backing array while
	// waiting for compaction — the retention bug sustained churn exposed.
	e.bkt.order[e.pos] = nil
	e.bkt.live--
	e.bkt = nil
	p.live--
	if p.live == 0 {
		p.minSize = 0
	}
}

// compact rebuilds buckets whose order slices are dominated by removed
// slots (always, when force is set), drops emptied buckets, re-tightens
// the minSize bound, and — unlike the historical version, which resliced
// in place and left the oversized backing array (with stale trailing
// slots) pinned forever — reallocates once live entries occupy less than a
// quarter of the capacity, so a pool that churned millions of transactions
// shrinks back to its working set.
func (p *Pool) compact(force bool) {
	compacted := false
	for i := 0; i < len(p.rates); {
		b := p.buckets[p.rates[i]]
		if b.live == 0 {
			p.dropBucket(b) // removes rates[i]; do not advance
			continue
		}
		if force || len(b.order) >= 2*b.live+16 {
			compacted = true
			inPlace := cap(b.order) <= 4*b.live+16
			dst := make([]*entry, 0, b.live)
			if inPlace {
				dst = b.order[:0]
			}
			for _, e := range b.order {
				if e == nil {
					continue
				}
				e.pos = len(dst)
				dst = append(dst, e)
			}
			if inPlace {
				// Clear the vacated trailing slots so the tail stops
				// pinning moved-from entry pointers (and the transactions
				// they hold) until the next growth overwrites them.
				clear(dst[len(dst):cap(dst)])
			} else {
				p.keepSpare(b.order)
			}
			b.order = dst
		}
		i++
	}
	if compacted {
		// Re-tighten the minSize bound (removals can leave it stale low);
		// O(live), amortized by the compaction trigger.
		min := 0
		for _, r := range p.rates {
			for _, e := range p.buckets[r].order {
				if e != nil && (min == 0 || e.size < min) {
					min = e.size
				}
			}
		}
		p.minSize = min
	}
	if p.live == 0 {
		p.minSize = 0
	}
}
