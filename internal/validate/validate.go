// Package validate is the shared validation pipeline behind every protocol
// node. Validation of a block splits into three stages:
//
//  1. Stateless well-formedness — proof of work against the header, Merkle
//     roots, transaction shapes, signatures. These are pure functions of the
//     object itself and are verdict-cached on the objects in internal/types;
//     this package adds a deterministic worker pool (Pool) that pre-warms
//     those caches in parallel outside the single-threaded event loops, and
//     the probe (Cache.Vouches) by which a freshly decoded copy of a block
//     this process already connected adopts its signature verdicts instead
//     of paying for them again.
//
//  2. Contextual connect — applying the block's transactions to the UTXO set
//     at its parent and checking the protocol's economic rules (coinbase
//     amounts, fee splits, poison evidence). The outcome — the UTXO delta,
//     the per-transaction fees, and the verdict — is a pure function of
//     (block hash, parent hash, rules fingerprint): the block hash commits to
//     the transactions and, through the parent chain, to the exact UTXO state
//     the block connects onto. This package memoizes that outcome in a
//     process-wide content-addressed Cache so that when N simulated nodes
//     connect the same block, the 2nd..Nth replay the recorded delta instead
//     of recomputing it (§8.2 of the paper: once propagation is cheap,
//     per-node processing capacity is the throughput cap).
//
//  3. Per-node state — tip choice, orphan stashes, mempools. Never shared and
//     never cached here.
//
// Sharing a cache entry is sound only between nodes whose validation
// semantics agree, which is what the rules fingerprint pins: it hashes the
// protocol's RulesID (name plus semantics-bearing flags) together with the
// consensus parameters, so nodes running different rules — different
// subsidies, fee splits, intervals, or protocols — can never observe each
// other's verdicts.
package validate

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
	"bitcoinng/internal/utxo"
)

// Fingerprint pins a validation-rules universe: protocol semantics plus
// consensus parameters. Connect verdicts are only shared within one
// fingerprint.
type Fingerprint crypto.Hash

// FingerprintOf derives the rules fingerprint from a protocol's RulesID and
// the consensus parameters. Params is hashed through its full value so any
// parameter change — even one a protocol happens to ignore — lands in a
// fresh cache universe; false sharing is a soundness bug, false splitting
// only costs a recompute.
func FingerprintOf(rulesID string, params types.Params) Fingerprint {
	return Fingerprint(crypto.HashBytes([]byte(fmt.Sprintf("%s|%#v", rulesID, params))))
}

// Key content-addresses one connect computation.
type Key struct {
	// Block is the hash of the block being connected; it commits to the
	// transaction set and, through the header chain, to the entire history
	// below it (including genesis), so it uniquely determines the UTXO
	// state the block applies to.
	Block crypto.Hash
	// Parent is the hash of the block connected onto, kept in the key as a
	// defense-in-depth redundancy (Block already commits to it).
	Parent crypto.Hash
	// Rules is the validation-rules fingerprint.
	Rules Fingerprint
}

// ConnectResult is the memoized outcome of the connect stage. Results are
// immutable once stored: replaying nodes read the delta, they never write
// through it.
type ConnectResult struct {
	// Delta is the UTXO mutation the block causes; nil when Err is set.
	Delta *utxo.Delta
	// FeeTotal is the total fee the block collected, recorded by the chain
	// layer for epoch fee accounting. (Per-transaction fees are consumed by
	// the economic checks during the initial computation and not retained.)
	FeeTotal types.Amount
	// Err is the validation verdict: nil for a connectable block, the
	// (deterministic) rejection otherwise. Negative verdicts are cached
	// too — the 2nd..Nth node rejecting an invalid block should not redo
	// the work of discovering why.
	Err error
}

// DefaultCacheSize bounds the shared cache. An entry costs its delta's op log
// — about a hundred bytes per transaction input and output, a few kilobytes
// for a typical block — and nothing more: a delta references the ledger
// states on either side of its block weakly, so the cache never keeps a
// superseded ledger alive. That caps worst-case memory in the tens of
// megabytes while comfortably holding every block of a paper-scale run.
const DefaultCacheSize = 16384

// cacheSegments splits the cache by key so concurrent users — the shards of
// a parallel run, and concurrent sweep points — lock disjoint segments
// instead of serializing on one mutex. Block hashes are uniform, so the
// first hash byte spreads load evenly. Power of two, for a mask.
const cacheSegments = 16

// Cache is a bounded content-addressed connect cache, safe for concurrent
// use and segmented to stay contention-free under parallel runs. Eviction
// is FIFO per segment: experiment traffic connects a block on every node
// within one propagation delay of the first, so recency hardly matters and
// FIFO keeps eviction O(1) and allocation-free.
type Cache struct {
	segs    [cacheSegments]cacheSegment
	hits    atomic.Uint64
	misses  atomic.Uint64
	vouched atomic.Uint64
}

type cacheSegment struct {
	mu      sync.RWMutex
	max     int
	entries map[Key]*ConnectResult
	order   []Key // insertion ring, oldest at head
	head    int   // index of the oldest live key in order
}

// NewCache creates a cache bounded to max entries; max <= 0 takes
// DefaultCacheSize. The bound is enforced per segment (max/cacheSegments
// each, rounded up), so the cache holds at most max+cacheSegments-1 entries
// — a memory bound, not an exact count.
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	c := &Cache{}
	perSeg := (max + cacheSegments - 1) / cacheSegments
	if perSeg < 1 {
		perSeg = 1
	}
	for i := range c.segs {
		c.segs[i].max = perSeg
		c.segs[i].entries = make(map[Key]*ConnectResult, 8)
	}
	return c
}

// segment picks the shard for a key by its block hash's first byte.
func (c *Cache) segment(key Key) *cacheSegment {
	return &c.segs[key.Block[0]&(cacheSegments-1)]
}

var shared = NewCache(0)

// Shared returns the process-wide cache every harness threads through its
// nodes by default. Content addressing makes cross-run sharing sound: equal
// keys imply equal history and equal rules.
func Shared() *Cache { return shared }

// peek reads the entry for key without counting.
func (c *Cache) peek(key Key) (*ConnectResult, bool) {
	s := c.segment(key)
	s.mu.RLock()
	res, ok := s.entries[key]
	s.mu.RUnlock()
	return res, ok
}

// Lookup returns the memoized result for key, if present.
func (c *Cache) Lookup(key Key) (*ConnectResult, bool) {
	res, ok := c.peek(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return res, ok
}

// Vouches reports whether the cache holds a positive result for key: a block
// with this hash, on this parent, was fully validated and connected under
// these rules in this process. It is the probe behind stage-1 adoption (see
// chain.State.AdoptStage1) and moves neither Hits nor Misses, which count
// connects, not questions. A negative entry vouches for nothing.
func (c *Cache) Vouches(key Key) bool {
	res, ok := c.peek(key)
	return ok && res.Err == nil
}

// CountVouched records that n transactions were marked signature-checked on
// the strength of a Vouches answer.
func (c *Cache) CountVouched(n int) { c.vouched.Add(uint64(n)) }

// Store memoizes a connect result and returns the result the cache now holds
// for key. The caller must not mutate res (or its delta) afterwards. The
// first result stored for a key is kept — a later one is equal to it by
// purity, but it is a different object: its delta names ledger versions of
// its own — so a caller that gets another result back than it passed lost a
// race and must continue with the one returned, or it would stand alone on a
// private ledger version while every other node adopts the kept one.
func (c *Cache) Store(key Key, res *ConnectResult) *ConnectResult {
	s := c.segment(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if kept, dup := s.entries[key]; dup {
		return kept
	}
	for len(s.entries) >= s.max && s.head < len(s.order) {
		delete(s.entries, s.order[s.head])
		s.head++
	}
	// Compact the ring once the dead prefix dominates.
	if s.head > 0 && s.head*2 >= len(s.order) {
		s.order = append(s.order[:0], s.order[s.head:]...)
		s.head = 0
	}
	s.entries[key] = res
	s.order = append(s.order, key)
	return res
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Entries int
	Hits    uint64
	Misses  uint64
	// Vouched counts transactions whose signature checks were adopted from
	// an earlier verification of the same block instead of being run again.
	Vouched uint64
}

// HitRate returns the fraction of lookups that hit, zero when no lookups
// happened.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	entries := 0
	for i := range c.segs {
		s := &c.segs[i]
		s.mu.RLock()
		entries += len(s.entries)
		s.mu.RUnlock()
	}
	return Stats{Entries: entries, Hits: c.hits.Load(), Misses: c.misses.Load(), Vouched: c.vouched.Load()}
}
