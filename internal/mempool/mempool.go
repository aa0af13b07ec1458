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
package mempool

import (
	"errors"
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

// entry is one pooled transaction with its selection metadata.
type entry struct {
	tx   *types.Transaction
	size int
	rate int64 // fee per 1000 bytes; 0 when the fee could not be resolved
	bkt  *bucket
	pos  int // index in bkt.order (maintained by compaction)
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
	txs     map[crypto.Hash]*entry
	spends  map[types.OutPoint]crypto.Hash // claimed inputs -> claiming tx
	buckets map[int64]*bucket
	rates   []int64 // bucket keys, sorted descending; never map order

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
		txs:     make(map[crypto.Hash]*entry),
		spends:  make(map[types.OutPoint]crypto.Hash),
		buckets: make(map[int64]*bucket),
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
	return Stats{Txs: len(p.txs), Bytes: p.bytes, Evictions: p.evictions, Rejected: p.rejected}
}

// Len returns the number of pooled transactions.
func (p *Pool) Len() int { return len(p.txs) }

// Contains reports whether the pool holds txid.
func (p *Pool) Contains(txid crypto.Hash) bool {
	_, ok := p.txs[txid]
	return ok
}

// feeRate resolves tx's fee and converts it to a per-1000-byte rate.
// Inputs resolve against the node's UTXO view first, then against pooled
// parents; any unresolved input zeroes the fee.
func (p *Pool) feeRate(tx *types.Transaction, size int) int64 {
	if p.resolver == nil || size <= 0 {
		return 0
	}
	var in types.Amount
	for i := range tx.Inputs {
		prev := tx.Inputs[i].Prev
		v, ok := p.resolver(prev)
		if !ok {
			if parent, pooled := p.txs[prev.TxID]; pooled && int(prev.Index) < len(parent.tx.Outputs) {
				v, ok = parent.tx.Outputs[prev.Index].Value, true
			}
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
	b := &bucket{rate: rate}
	p.buckets[rate] = b
	i := sort.Search(len(p.rates), func(i int) bool { return p.rates[i] <= rate })
	p.rates = append(p.rates, 0)
	copy(p.rates[i+1:], p.rates[i:])
	p.rates[i] = rate
	return b
}

// dropBucket removes an emptied bucket from the rate index.
func (p *Pool) dropBucket(b *bucket) {
	delete(p.buckets, b.rate)
	for i, r := range p.rates {
		if r == b.rate {
			p.rates = append(p.rates[:i], p.rates[i+1:]...)
			return
		}
	}
}

// Add inserts a well-formed regular transaction, rejecting duplicates and
// transactions that double-spend an input already claimed in the pool.
// Validation against the UTXO set is the block assembler's job (a pooled
// transaction can become invalid later through a conflicting confirmation).
// When limits are set, admission may evict lower-priority entries or return
// ErrPoolFull. Every refusal is a bare sentinel (ErrKind, ErrDuplicate,
// ErrConflict, ErrPoolFull) and allocates nothing.
func (p *Pool) Add(tx *types.Transaction) error {
	if tx.Kind != types.TxRegular {
		return ErrKind
	}
	txid := tx.ID()
	if _, ok := p.txs[txid]; ok {
		return ErrDuplicate
	}
	for i := range tx.Inputs {
		if _, ok := p.spends[tx.Inputs[i].Prev]; ok {
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
	e := &entry{tx: tx, size: size, rate: rate, bkt: b, pos: len(b.order)}
	b.order = append(b.order, e)
	b.live++
	p.txs[txid] = e
	p.bytes += size
	for i := range tx.Inputs {
		p.spends[tx.Inputs[i].Prev] = txid
	}
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
		if p.limits.MaxTxs > 0 && len(p.txs)+1 > p.limits.MaxTxs {
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

// RemoveConfirmed drops the given transactions (typically the contents of a
// newly connected block) and any pooled transaction that conflicts with
// them on an input.
func (p *Pool) RemoveConfirmed(txs []*types.Transaction) {
	for _, tx := range txs {
		p.remove(tx.ID())
		// Evict pool entries that spend the same inputs.
		for i := range tx.Inputs {
			if owner, ok := p.spends[tx.Inputs[i].Prev]; ok {
				p.remove(owner)
			}
		}
	}
	p.compact(false)
}

// Reinsert returns transactions to the pool after the block containing them
// was disconnected in a reorganization. Conflicting entries that arrived in
// the meantime win; reinsertion is best-effort, as in Bitcoin.
func (p *Pool) Reinsert(txs []*types.Transaction) {
	for _, tx := range txs {
		if tx.Kind != types.TxRegular {
			continue // coinbases and poisons die with their block
		}
		_ = p.Add(tx)
	}
}

func (p *Pool) remove(txid crypto.Hash) {
	e, ok := p.txs[txid]
	if !ok {
		return
	}
	p.removeEntry(e)
}

func (p *Pool) removeEntry(e *entry) {
	txid := e.tx.ID()
	delete(p.txs, txid)
	for i := range e.tx.Inputs {
		if p.spends[e.tx.Inputs[i].Prev] == txid {
			delete(p.spends, e.tx.Inputs[i].Prev)
		}
	}
	p.bytes -= e.size
	// Clear the slot immediately: a removed entry (and the transaction it
	// pins) must not stay reachable from the bucket's backing array while
	// waiting for compaction — the retention bug sustained churn exposed.
	e.bkt.order[e.pos] = nil
	e.bkt.live--
	e.bkt = nil
	if len(p.txs) == 0 {
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
				tail := dst[len(dst):cap(dst)]
				for j := range tail {
					tail[j] = nil
				}
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
	if len(p.txs) == 0 {
		p.minSize = 0
	}
}
