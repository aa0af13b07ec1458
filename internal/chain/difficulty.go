package chain

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// MaxFutureSkew is how far a block timestamp may lead the local clock
// (Bitcoin uses two hours).
const MaxFutureSkew = 2 * time.Hour

// MedianTimeWindow is the median-time-past window over PoW/key blocks
// (Bitcoin uses 11).
const MedianTimeWindow = 11

// Violations of the header rules every block that carries proof of work
// obeys, whichever protocol's chain it extends.
var (
	ErrTimeTooNew    = errors.New("chain: block timestamp too far in the future")
	ErrTimeTooOld    = errors.New("chain: block timestamp before median time past")
	ErrWrongTarget   = errors.New("chain: block target does not match schedule")
	ErrSimulatedPoW  = errors.New("chain: simulated proof of work not allowed live")
	ErrBadCoinbaseHt = errors.New("chain: coinbase height mismatch")
)

// BlockTarget returns the difficulty target a PoW-bearing block commits to;
// microblocks return the zero target (they carry no proof of work).
func BlockTarget(b types.Block) crypto.CompactTarget {
	if pb, ok := types.CarriesPoW(b); ok {
		h, _ := pb.PoW()
		return h.Target
	}
	return 0
}

// MedianTimePast returns the median timestamp of the last `window` PoW/key
// blocks ending at n's key ancestor — Bitcoin's lower bound for new block
// timestamps (window 11 in the operational client).
func MedianTimePast(n *Node, window int) int64 {
	times := make([]int64, 0, window)
	k := n.KeyAncestor
	for k != nil && len(times) < window {
		times = append(times, k.Time())
		if k.Parent == nil {
			break
		}
		k = k.Parent.KeyAncestor
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2]
}

// NextTarget returns the required difficulty target for a PoW/key block
// extending parent, applying the retargeting schedule: every RetargetWindow
// key blocks the target scales by observed/expected window duration, clamped
// 4x as in Bitcoin (§5.2 discusses the consequences of this mechanism under
// mining power variation).
func NextTarget(parent *Node, params types.Params) crypto.CompactTarget {
	last := parent.KeyAncestor
	lastTarget := last.Target()
	w := params.RetargetWindow
	if w <= 1 {
		return lastTarget
	}
	nextHeight := parent.KeyHeight + 1
	if nextHeight%uint64(w) != 0 {
		return lastTarget
	}
	// Walk back w-1 key blocks to the window start. Short chains (the
	// first retarget after genesis) stop early; `expected` must count the
	// intervals actually traversed, not assume a full window, or the first
	// adjustment scales by an actual/expected ratio biased toward "too
	// fast" and overshoots the clamp.
	first := last
	intervals := 0
	for i := 0; i < w-1 && first.Parent != nil; i++ {
		first = first.Parent.KeyAncestor
		intervals++
	}
	if intervals == 0 {
		return lastTarget
	}
	actual := float64(last.Time() - first.Time())
	expected := float64(int64(intervals) * int64(params.TargetBlockInterval))
	return crypto.Retarget(lastTarget, actual, expected)
}

// CheckPowHeader applies Bitcoin's header rules to a block b that carries
// proof of work and extends parent. A simulated proof is refused unless
// allowSimulated, before contents (the protocol's checks of the block's own
// body) pays for any signature. Then b may lead now by at most MaxFutureSkew.
// A live block must also be timed after the median time past and commit to
// the scheduled target; a simulated one takes both from the scheduler.
func CheckPowHeader(st *State, parent *Node, b types.PowCarrier, allowSimulated bool, now int64, contents func() error) error {
	h, simulated := b.PoW()
	if simulated && !allowSimulated {
		return ErrSimulatedPoW
	}
	if err := contents(); err != nil {
		return err
	}
	if h.TimeNanos > now+int64(MaxFutureSkew) {
		return ErrTimeTooNew
	}
	if simulated {
		return nil
	}
	if h.TimeNanos <= MedianTimePast(parent, MedianTimeWindow) {
		return ErrTimeTooOld
	}
	if want := NextTarget(parent, st.Params()); h.Target != want {
		return fmt.Errorf("%w: got %#x want %#x", ErrWrongTarget, uint32(h.Target), uint32(want))
	}
	return nil
}

// CheckCoinbaseHeight requires the coinbase of n's block to commit to n's
// key height, so that no two coinbases share an ID.
func CheckCoinbaseHeight(n *Node) error {
	coinbase := n.Block().Transactions()[0]
	if coinbase.Height != n.KeyHeight {
		return fmt.Errorf("%w: got %d want %d", ErrBadCoinbaseHt, coinbase.Height, n.KeyHeight)
	}
	return nil
}
