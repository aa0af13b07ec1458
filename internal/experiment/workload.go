// Package experiment is the evaluation harness: it assembles an emulated
// network of protocol nodes, drives a shared transaction workload (finite
// and pre-signed, or streamed under a pacing discipline), drives simulated
// mining, and computes the §6 metrics — reproducing the paper's 1000-node
// methodology (§7) at configurable scale. Sweep drivers regenerate each
// evaluation figure (§8).
package experiment

import (
	"fmt"
	"math"
	"math/bits"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/load"
	"bitcoinng/internal/types"
)

// Workload is the shared artificial transaction source. It is backed by a
// streaming lane-chained generator (internal/load): transactions are signed
// in batches on demand rather than all up front, so a run's offered load is
// no longer bounded by setup time or RAM; the views materialize them.
type Workload struct {
	Genesis *types.PowBlock
	TxSize  int

	stream *load.Stream
	// viewBits, when set, is how many transactions a new view's bitmap is
	// sized for up front.
	viewBits int64
}

// NewStreamWorkload builds a lazily materialized workload: lanes spend
// chains (0 takes the load.DefaultLanes), maxTxs caps the stream (0 means
// unbounded). Views install batches on demand as the simulation runs, while
// the stream's background signer keeps the next few signed.
func NewStreamWorkload(seed int64, txSize, lanes int, maxTxs int64) (*Workload, error) {
	stream, err := load.NewStream(load.StreamConfig{
		Seed:   seed,
		TxSize: txSize,
		Lanes:  lanes,
		MaxTxs: maxTxs,
	})
	if err != nil {
		return nil, err
	}
	genesis := types.GenesisBlock(types.GenesisSpec{
		TimeNanos: 0,
		Target:    crypto.EasiestTarget,
		Payouts:   stream.GenesisPayouts(),
	})
	stream.Bind(genesis.Txs[0].ID(), 0)
	return &Workload{Genesis: genesis, TxSize: txSize, stream: stream}, nil
}

// Stream exposes the backing generator (release floor, occupancy).
func (w *Workload) Stream() *load.Stream { return w.stream }

// NewView returns a per-node pool view over the shared workload. Views
// implement node.TxPool with one bit of state per transaction, so a
// 1000-node experiment holds one copy of the workload plus 1000 bitmaps.
// The bitmaps are windowed: Compact drops fully confirmed low words once
// the stream's release floor passes them. A bitmap is sized once, for the
// workload's viewBits, and grows past that only if the window does.
func (v *Workload) NewView() *WorkloadView {
	view := &WorkloadView{w: v}
	if v.viewBits > 0 {
		view.confirmed = make([]uint64, 0, (v.viewBits+63)/64)
	}
	return view
}

// WorkloadView is one node's pool over the shared workload. By default it
// offers the whole stream at once (the classic pre-loaded-mempool
// methodology); SetOpenLoop and SetClosedLoop impose a pacing discipline on
// how far into the stream Select may reach.
type WorkloadView struct {
	w *Workload

	// Pacing (at most one active): open loop offers index i at virtual
	// time OfferTime(rate, i); closed loop keeps `window` transactions
	// beyond this view's confirmed count.
	rate   float64
	now    func() int64
	window int64

	// confirmed is a windowed bitset: bit (i - 64*wordBase) of word i/64
	// tracks index i. Indices below 64*wordBase were compacted away and
	// read as confirmed.
	wordBase  int64
	confirmed []uint64
	// prefix is the first index not known confirmed (lazily advanced);
	// count is the total ever confirmed from this view's perspective.
	prefix int64
	count  int64
}

// SetOpenLoop makes Select offer transactions at rate tx/s of virtual time
// (clock reads the owning loop; on the sharded engine that is the node's
// shard-local clock, which is deterministic for the node's events).
func (v *WorkloadView) SetOpenLoop(rate float64, clock func() int64) {
	v.rate, v.now, v.window = rate, clock, 0
}

// SetClosedLoop makes Select keep at most window transactions beyond this
// view's confirmed count outstanding.
func (v *WorkloadView) SetClosedLoop(window int64) {
	v.rate, v.now, v.window = 0, nil, window
}

func (v *WorkloadView) bit(i int64) bool {
	wi := i/64 - v.wordBase
	if wi < 0 {
		return true // compacted below the floor: confirmed by definition
	}
	if wi >= int64(len(v.confirmed)) {
		return false
	}
	return v.confirmed[wi]&(1<<(uint64(i)%64)) != 0
}

// setBit marks i confirmed, reporting whether it was newly set.
func (v *WorkloadView) setBit(i int64) bool { return v.setRange(i, i+1) == 1 }

// setRange marks the indices in [lo, hi) confirmed a word at a time,
// returning how many were newly set. Indices below the compaction floor are
// confirmed already.
func (v *WorkloadView) setRange(lo, hi int64) int64 {
	var set int64
	for lo = max(lo, 64*v.wordBase); lo < hi; {
		wi := lo/64 - v.wordBase
		// Append, never re-slice: a word past len may hold a compacted
		// word's stale bits (TestViewGrowthAfterCompactReadsZeros).
		for wi >= int64(len(v.confirmed)) {
			v.confirmed = append(v.confirmed, 0)
		}
		end := min(hi, (lo/64+1)*64)
		mask := ^uint64(0) >> (64 - uint64(end-lo)) << (uint64(lo) % 64)
		set += int64(bits.OnesCount64(mask &^ v.confirmed[wi]))
		v.confirmed[wi] |= mask
		lo = end
	}
	return set
}

// skipConfirmed advances prefix past confirmed indices, a word at a time.
func (v *WorkloadView) skipConfirmed() {
	v.prefix = max(v.prefix, 64*v.wordBase)
	for wi := v.prefix/64 - v.wordBase; wi < int64(len(v.confirmed)); wi++ {
		if free := ^v.confirmed[wi] >> (uint64(v.prefix) % 64); free != 0 {
			v.prefix += int64(bits.TrailingZeros64(free))
			return
		}
		v.prefix = (v.prefix/64 + 1) * 64
	}
}

// clearBit unmarks i, reporting whether it was set. Indices below the
// compaction floor stay confirmed: reinsertion there is best-effort lost,
// like a real mempool shedding under pressure.
func (v *WorkloadView) clearBit(i int64) bool {
	wi := i/64 - v.wordBase
	if wi < 0 || wi >= int64(len(v.confirmed)) {
		return false
	}
	mask := uint64(1) << (uint64(i) % 64)
	if v.confirmed[wi]&mask == 0 {
		return false
	}
	v.confirmed[wi] &^= mask
	return true
}

// Add implements node.TxPool; the workload is fixed, so loose additions are
// rejected (experiments do not relay transactions, §7).
func (v *WorkloadView) Add(tx *types.Transaction) error {
	return fmt.Errorf("experiment: workload pool is read-only")
}

// Known implements node.TxPool. Nothing is relayed into a view, and Add
// refuses everything anyway, so no transaction is known by ID.
func (v *WorkloadView) Known(crypto.Hash) bool { return false }

// Get implements node.TxPool: nothing is relayed into a view, so no block
// is ever filled from one.
func (v *WorkloadView) Get(crypto.Hash) *types.Transaction { return nil }

// limit returns the first index Select may NOT offer yet under the active
// pacing discipline.
func (v *WorkloadView) limit() int64 {
	switch {
	case v.rate > 0:
		var t int64
		if v.now != nil {
			t = v.now()
		}
		return load.OfferedAt(v.rate, t)
	case v.window > 0:
		return v.count + v.window
	}
	return math.MaxInt64
}

// Select implements node.TxPool: unconfirmed transactions in index order up
// to maxBytes, materializing stream batches on demand but never past the
// pacing frontier — the bounded lookahead that keeps resident memory
// proportional to the in-flight window.
func (v *WorkloadView) Select(maxBytes int) []*types.Transaction {
	v.skipConfirmed()
	limit := v.limit()
	var out []*types.Transaction
	budget := maxBytes
	for i := v.prefix; i < limit && budget >= v.w.TxSize; i++ {
		if v.bit(i) {
			continue
		}
		tx := v.w.stream.Tx(i)
		if tx == nil {
			break // stream cap (or released slot) reached
		}
		size := tx.WireSize()
		if size > budget {
			break // identical sizes: nothing further fits either
		}
		out = append(out, tx)
		budget -= size
	}
	return out
}

// RemoveConfirmed implements node.TxPool: stream members carry their index
// in the padding stamp, so confirmation needs no pointer-identity map. A
// block carries runs of consecutive indices: each run is set a word at a
// time, and the prefix advances once per call.
func (v *WorkloadView) RemoveConfirmed(txs []*types.Transaction) {
	var lo, hi int64 // the open run [lo, hi)
	for _, tx := range txs {
		i, ok := load.TxIndex(tx)
		if !ok {
			continue
		}
		if i != hi {
			v.count += v.setRange(lo, hi)
			lo = i
		}
		hi = i + 1
	}
	v.count += v.setRange(lo, hi)
	v.skipConfirmed()
}

// Reinsert implements node.TxPool.
func (v *WorkloadView) Reinsert(txs []*types.Transaction) {
	for _, tx := range txs {
		i, ok := load.TxIndex(tx)
		if !ok {
			continue
		}
		if v.clearBit(i) {
			v.count--
			if i < v.prefix {
				v.prefix = i
			}
		}
	}
}

// Len implements node.TxPool: materialized transactions this view has not
// confirmed. (Unmaterialized stream tail is offered load, not pool depth.)
func (v *WorkloadView) Len() int {
	n := v.w.stream.Generated() - v.count
	if n < 0 {
		n = 0
	}
	return int(n)
}

// ConfirmedCount returns how many stream transactions this view has seen
// confirmed (monotone except for reorg reinserts).
func (v *WorkloadView) ConfirmedCount() int64 { return v.count }

// ConfirmedPrefix returns the first index this view does not know to be
// confirmed — the release-floor input.
func (v *WorkloadView) ConfirmedPrefix() int64 {
	v.skipConfirmed()
	return v.prefix
}

// Compact drops bitset words wholly below floor (the stream's release
// floor, which never passes any view's confirmed prefix minus slack). Word
// contents below the floor are all-ones by construction; dropping them
// keeps view memory proportional to the in-flight window.
func (v *WorkloadView) Compact(floor int64) {
	fw := floor / 64
	if fw <= v.wordBase {
		return
	}
	drop := fw - v.wordBase
	if drop >= int64(len(v.confirmed)) {
		v.confirmed = v.confirmed[:0]
	} else {
		n := copy(v.confirmed, v.confirmed[drop:])
		v.confirmed = v.confirmed[:n]
	}
	v.wordBase = fw
	if v.prefix < fw*64 {
		v.prefix = fw * 64
	}
}
