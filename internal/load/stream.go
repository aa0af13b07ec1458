// Package load is the sustained-load engine: a streaming, lane-chained
// transaction generator whose content is a pure function of its seed, plus
// the rate-controlled blaster that injects it and the reporting that turns a
// finished chain into offered-vs-confirmed throughput and latency figures.
//
// The paper's methodology pre-loads every mempool with one finite workload
// (§7 "No Transaction Propagation"), which caps offered load by setup time
// and RAM. Stream removes the cap: a background signer keeps a few bounded
// batches signed ahead of demand on the shared validate.Pool while the run
// executes, and slots below the confirmation floor are released, so
// resident memory tracks the in-flight window rather than the run's total
// offered load.
package load

import (
	"encoding/binary"
	"fmt"
	"sync"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/types"
	"bitcoinng/internal/validate"
)

// DefaultTxSize is §7's transaction size in bytes, the operational
// average the paper's experiments pad every transaction to: the default
// for streams, experiments and the cluster blaster alike.
const DefaultTxSize = 476

// DefaultLanes is the default chain-parallelism of a stream: how many
// independent spend chains interleave. One batch signs one transaction per
// lane, so lanes also bound the signing batch size.
const DefaultLanes = 256

// StreamFee is the fee every stream transaction pays; it funds the 40/60
// split path exactly like the classic workload's fee.
const StreamFee = types.Amount(100)

// laneFund is each lane's genesis endowment. At StreamFee per hop a lane
// sustains ~10^10 transactions before exhaustion, and DefaultLanes lanes
// total ~2.8e14 — comfortably under types.MaxAmount.
const laneFund = types.Amount(1) << 40

// keyStream is the sim.NewRand stream id the signing key derives from
// (shared with the classic experiment workload for seed continuity).
const keyStream = 0xf00d

// indexMagic prefixes the index stamp in a stream transaction's padding.
// The spend chain forces every output back to the stream key, so the
// transaction's position cannot ride in the output address; it rides in the
// first indexStampLen padding bytes instead, where consensus ignores it.
var indexMagic = [4]byte{'N', 'G', 'L', 'D'}

const indexStampLen = len(indexMagic) + 8

// lookahead is how many batches the background signer keeps signed but not
// yet installed. Depth 1 already overlaps one batch with the consumer; deeper
// queues absorb demand bursts (a leader's Select asking for a blockful at
// once) and cost at most lookahead batches of signing nobody asked for when a
// stream is abandoned.
const lookahead = 4

// StreamConfig parameterizes a Stream. Zero values take defaults.
type StreamConfig struct {
	// Seed derives the signing key and thereby every transaction ID.
	Seed int64
	// TxSize pads each transaction to this serialized size (default
	// DefaultTxSize).
	TxSize int
	// Lanes is the number of interleaved spend chains (default
	// DefaultLanes, clamped to MaxTxs when that is smaller).
	Lanes int
	// MaxTxs caps the stream; 0 means unbounded (the lane endowment still
	// imposes an astronomically distant ceiling).
	MaxTxs int64
}

// Stream generates an unbounded, seed-deterministic sequence of chained
// transactions: transaction i spends the output of transaction i-Lanes
// (its lane predecessor), paying the stream key back minus StreamFee.
//
// One background signer builds batches in index order, each from the lane
// heads the previous one left, so batch k is a pure function of (seed, k).
// Built batches wait in an ordered ready queue; Tx installs them only on
// demand, under the lock. Everything observable — Generated, Occupancy,
// Released and every transaction's bytes — therefore moves exactly as if
// each batch were signed at the moment it is installed, whatever the signer
// and any number of concurrent callers on different shards do in between:
// the byte-identical-at-any-parallelism property the determinism gate
// enforces.
//
// Stream is safe for concurrent use.
type Stream struct {
	cfg  StreamConfig
	key  *crypto.PrivateKey
	addr crypto.Address
	pool *validate.Pool

	mu        sync.Mutex
	queued    *sync.Cond // broadcast when the signer queues a batch or exits
	bound     bool
	base      int64 // first retained index (release floor, lane-aligned)
	window    []*types.Transaction
	generated int64 // first never-installed index

	// Signer state: ready holds built, uninstalled batches in index order;
	// next is the first index no batch covers yet, and heads/headVal are the
	// lane tips the batch starting at next spends.
	ready   [][]*types.Transaction
	signing bool // a signer goroutine is running
	next    int64
	heads   []types.OutPoint
	headVal []types.Amount
}

// NewStream derives the stream key and prepares an empty (unbound) stream.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if cfg.TxSize <= 0 {
		cfg.TxSize = DefaultTxSize
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = DefaultLanes
	}
	if cfg.MaxTxs > 0 && int64(cfg.Lanes) > cfg.MaxTxs {
		cfg.Lanes = int(cfg.MaxTxs)
	}
	// The endowment ceiling keeps the generator from ever producing a
	// zero-value output; at default economics it is ~10^12 transactions.
	fund := int64(laneFund-1) / int64(StreamFee) * int64(cfg.Lanes)
	if cfg.MaxTxs <= 0 || cfg.MaxTxs > fund {
		cfg.MaxTxs = fund
	}
	key, err := crypto.GenerateKey(sim.NewRand(cfg.Seed, keyStream))
	if err != nil {
		return nil, fmt.Errorf("load: stream key: %w", err)
	}
	s := &Stream{
		cfg:  cfg,
		key:  key,
		addr: key.Public().Addr(),
		pool: validate.SharedPool(),
	}
	s.queued = sync.NewCond(&s.mu)
	return s, nil
}

// GenesisPayouts returns the lane endowments to append to a genesis block's
// coinbase: one laneFund output per lane, owned by the stream key.
func (s *Stream) GenesisPayouts() []types.TxOutput {
	out := make([]types.TxOutput, s.cfg.Lanes)
	for i := range out {
		out[i] = types.TxOutput{Value: laneFund, To: s.addr}
	}
	return out
}

// Bind anchors the lanes to the funding coinbase: lane l spends output
// firstOutput+l of transaction cb. It must be called exactly once, before
// any Tx call.
func (s *Stream) Bind(cb crypto.Hash, firstOutput uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bound {
		panic("load: stream bound twice")
	}
	s.bound = true
	s.heads = make([]types.OutPoint, s.cfg.Lanes)
	s.headVal = make([]types.Amount, s.cfg.Lanes)
	for l := range s.heads {
		s.heads[l] = types.OutPoint{TxID: cb, Index: firstOutput + uint32(l)}
		s.headVal[l] = laneFund
	}
}

// Lanes returns the stream's lane count.
func (s *Stream) Lanes() int { return s.cfg.Lanes }

// MaxTxs returns the stream's effective cap (never zero; unbounded streams
// report the lane-endowment ceiling).
func (s *Stream) MaxTxs() int64 { return s.cfg.MaxTxs }

// Generated returns the first never-installed index: how far demand has
// materialized the stream. Batches the signer has built ahead but no Tx call
// has installed do not count.
func (s *Stream) Generated() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generated
}

// Released returns the release floor: indices below it have been freed and
// are no longer materialized.
func (s *Stream) Released() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base
}

// Occupancy returns how many installed transactions are currently retained
// (the window between the release floor and Generated).
func (s *Stream) Occupancy() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generated - s.base
}

// Tx returns transaction i, installing every batch up to i's from the
// signer's ready queue and waiting for the signer while the queue is empty.
// It returns nil for indices at or beyond the cap and for indices already
// released.
func (s *Stream) Tx(i int64) *types.Transaction {
	if i < 0 || i >= s.cfg.MaxTxs {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.bound {
		panic("load: stream not bound")
	}
	for s.generated <= i {
		if len(s.ready) == 0 {
			s.wake()
			s.queued.Wait()
			continue
		}
		batch := s.ready[0]
		s.ready[0] = nil
		s.ready = s.ready[1:]
		s.window = append(s.window, batch...)
		s.generated += int64(len(batch))
		s.wake()
	}
	if i < s.base {
		return nil
	}
	return s.window[i-s.base]
}

// wake starts the signer if it is idle and has work: room in the ready queue
// below the cap. Called with s.mu held.
func (s *Stream) wake() {
	if s.signing || len(s.ready) >= lookahead || s.next >= s.cfg.MaxTxs {
		return
	}
	s.signing = true
	go s.sign()
}

// sign is the signer goroutine: it builds batches in index order, outside
// the lock, until lookahead of them wait uninstalled or the cap is reached,
// then exits — so no signer outlives demand by more than lookahead batches.
func (s *Stream) sign() {
	s.mu.Lock()
	for len(s.ready) < lookahead && s.next < s.cfg.MaxTxs {
		g, heads, vals := s.next, s.heads, s.headVal
		s.mu.Unlock()
		batch, nh, nv := s.buildBatch(g, heads, vals)
		s.mu.Lock()
		s.ready = append(s.ready, batch)
		s.next += int64(len(batch))
		s.heads, s.headVal = nh, nv
		s.queued.Broadcast()
	}
	s.signing = false
	s.queued.Broadcast()
	s.mu.Unlock()
}

// buildBatch constructs and signs the batch starting at index g from the
// given lane heads, fanning the signatures out on the pool. Pure: no Stream
// state is read or written and the inputs are not modified, so it runs
// without the lock and its output depends only on (g, heads, vals).
func (s *Stream) buildBatch(g int64, heads []types.OutPoint, vals []types.Amount) ([]*types.Transaction, []types.OutPoint, []types.Amount) {
	n := int64(len(heads))
	if g+n > s.cfg.MaxTxs {
		n = s.cfg.MaxTxs - g
	}
	batch := make([]*types.Transaction, n)
	for j := range batch {
		tx := &types.Transaction{
			Kind:   types.TxRegular,
			Inputs: []types.TxInput{{Prev: heads[j]}},
			Outputs: []types.TxOutput{{
				Value: vals[j] - StreamFee,
				To:    s.addr,
			}},
		}
		PadTo(tx, s.cfg.TxSize)
		stampIndex(tx, g+int64(j))
		batch[j] = tx
	}
	s.pool.Run(len(batch), func(j int) { batch[j].SignInput(0, s.key) })
	s.pool.WarmTransactions(batch)
	nh := append([]types.OutPoint(nil), heads...)
	nv := append([]types.Amount(nil), vals...)
	for j := range batch {
		nh[j] = types.OutPoint{TxID: batch[j].ID(), Index: 0}
		nv[j] = vals[j] - StreamFee
	}
	return batch, nh, nv
}

// Release frees every transaction below `before` (rounded down to a batch
// boundary and clamped to the generated frontier). Released slots are
// cleared before the window reslices, so the backing array stops pinning
// the freed transactions — the retention class the mempool compaction fix
// also addresses.
func (s *Stream) Release(before int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if before > s.generated {
		before = s.generated
	}
	before -= before % int64(s.cfg.Lanes)
	if before <= s.base {
		return
	}
	drop := before - s.base
	for i := int64(0); i < drop; i++ {
		s.window[i] = nil
	}
	s.window = s.window[drop:]
	s.base = before
	// Re-home the live suffix once the dead prefix of the backing array
	// dominates, so long runs do not accumulate slid-forward arrays.
	if cap(s.window) > 4*len(s.window)+64 {
		s.window = append(make([]*types.Transaction, 0, len(s.window)), s.window...)
	}
}

// stampIndex writes the stream index into the transaction's padding. Called
// after PadTo and before SignInput, so the stamp is covered by the
// signature and the ID like any other byte.
func stampIndex(tx *types.Transaction, i int64) {
	if len(tx.Padding) < indexStampLen {
		return // tiny TxSize: the tx still validates, it just loses tracking
	}
	copy(tx.Padding, indexMagic[:])
	binary.BigEndian.PutUint64(tx.Padding[len(indexMagic):], uint64(i))
	tx.Invalidate()
}

// TxIndex decodes the stream index stamped into a transaction's padding,
// reporting ok=false for transactions that are not stream members.
func TxIndex(tx *types.Transaction) (int64, bool) {
	if tx.Kind != types.TxRegular || len(tx.Padding) < indexStampLen || [len(indexMagic)]byte(tx.Padding) != indexMagic {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(tx.Padding[len(indexMagic):])), true
}

// PadTo sets tx.Padding so the serialized size hits target exactly where
// possible (off by at most the padding varint's growth otherwise).
// Transactions whose base size already exceeds target are left unpadded.
func PadTo(tx *types.Transaction, target int) {
	tx.Padding = nil
	tx.Invalidate()
	base := tx.WireSize() // includes the 1-byte varint of empty padding
	want := target - base // extra bytes needed
	if want <= 0 {
		return
	}
	// n padding bytes cost n + (varintLen(n) - 1) extra. Start from the
	// closed-form guess and correct for varint boundaries.
	n := want
	if want > 0xfc {
		n = want - 2 // 3-byte varint
		if n > 0xffff {
			n = want - 4 // 5-byte varint
		}
	}
	for n > 0 && n+varintLen(n)-1 > want {
		n--
	}
	tx.Padding = make([]byte, n)
	tx.Invalidate()
}

func varintLen(n int) int {
	switch {
	case n < 0xfd:
		return 1
	case n <= 0xffff:
		return 3
	case n <= 0xffffffff:
		return 5
	default:
		return 9
	}
}
