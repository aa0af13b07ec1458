package chain

import (
	"testing"
	"time"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// syntheticKeyNode builds a bare key-block tree node for difficulty tests:
// the window walk only touches Parent, KeyAncestor, KeyHeight, and the block
// timestamp/target, so no chain state is needed.
func syntheticKeyNode(parent *Node, keyHeight uint64, at time.Duration, target crypto.CompactTarget) *Node {
	n := DetachedNode(&types.KeyBlock{
		Header: types.KeyBlockHeader{
			PowHeader: types.PowHeader{
				TimeNanos: int64(at),
				Target:    target,
			},
		},
		SimulatedPoW: true,
	})
	n.Parent = parent
	n.KeyHeight = keyHeight
	n.KeyAncestor = n
	return n
}

// TestNextTargetRetargetBoundary pins the full-window schedule: at the first
// boundary of a window-4 schedule the walk spans exactly 3 intervals, and a
// chain mined 2x slower than the target doubles the target (ratio 2, inside
// the 4x clamp).
func TestNextTargetRetargetBoundary(t *testing.T) {
	params := types.DefaultParams()
	params.RetargetWindow = 4
	params.TargetBlockInterval = 100 * time.Second

	tgt := crypto.CompactTarget(0x1d00ffff)
	var tip *Node
	for kh := uint64(0); kh < 4; kh++ {
		// Blocks spaced 200s: twice the target interval.
		tip = syntheticKeyNode(tip, kh, time.Duration(kh)*200*time.Second, tgt)
	}
	// tip.KeyHeight == 3, so the next block (height 4) retargets.
	got := NextTarget(tip, params)
	want := crypto.Retarget(tgt, float64(3*200*time.Second), float64(3*100*time.Second))
	if got != want {
		t.Fatalf("boundary retarget: got %#x want %#x", uint32(got), uint32(want))
	}
	if got == tgt {
		t.Fatal("retarget did not adjust the target")
	}

	// Off-boundary heights keep the previous target unchanged.
	next := syntheticKeyNode(tip, 4, 4*200*time.Second, got)
	if off := NextTarget(next, params); off != got {
		t.Fatalf("off-boundary: got %#x want %#x", uint32(off), uint32(got))
	}
}

// TestNextTargetShortWindowCountsTraversedIntervals is the regression test
// for the window clamp: when the walk-back stops early at the tree root (a
// store rooted at a checkpoint rather than the true genesis), `expected`
// must count the intervals actually traversed, not assume a full w-1.
func TestNextTargetShortWindowCountsTraversedIntervals(t *testing.T) {
	params := types.DefaultParams()
	params.RetargetWindow = 4
	params.TargetBlockInterval = 100 * time.Second

	tgt := crypto.CompactTarget(0x1d00ffff)
	// Root the tree at key height 6: the next boundary (height 8) can only
	// walk back one interval before hitting the root.
	root := syntheticKeyNode(nil, 6, 0, tgt)
	tip := syntheticKeyNode(root, 7, 200*time.Second, tgt)

	got := NextTarget(tip, params)
	// One traversed interval of 200s against one expected interval of 100s:
	// ratio 2. The buggy version divided 200s by three expected intervals
	// (ratio 2/3) and tightened the target instead.
	want := crypto.Retarget(tgt, float64(200*time.Second), float64(100*time.Second))
	if got != want {
		t.Fatalf("short-window retarget: got %#x want %#x", uint32(got), uint32(want))
	}
	bad := crypto.Retarget(tgt, float64(200*time.Second), float64(3*100*time.Second))
	if got == bad {
		t.Fatal("short-window retarget still assumes w-1 intervals")
	}

	// Degenerate: a boundary exactly at the root traverses zero intervals
	// and must keep the target unchanged rather than divide by zero.
	soloRoot := syntheticKeyNode(nil, 3, 0, tgt)
	if got := NextTarget(soloRoot, params); got != tgt {
		t.Fatalf("zero-interval window: got %#x want %#x", uint32(got), uint32(tgt))
	}
}

// TestMedianTimePastUpperMedian pins the even-count behaviour to Bitcoin's
// rule: GetMedianTimePast sorts the collected timestamps and takes index
// count/2, which for an even count is the UPPER median. A short chain
// collects fewer than `window` timestamps, so the even case is reachable
// regardless of the configured window size.
func TestMedianTimePastUpperMedian(t *testing.T) {
	tgt := crypto.CompactTarget(0x1d00ffff)
	var tip *Node
	times := []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second, 40 * time.Second}
	for i, at := range times {
		tip = syntheticKeyNode(tip, uint64(i), at, tgt)
	}

	// Even window equal to the chain length: upper median of {10,20,30,40}
	// is 30, not 20 (lower) and not 25 (midpoint).
	if got := MedianTimePast(tip, 4); got != int64(30*time.Second) {
		t.Fatalf("even-count median: got %v want %v", got, int64(30*time.Second))
	}
	// Odd window: the true median of {20,30,40} is 30.
	if got := MedianTimePast(tip, 3); got != int64(30*time.Second) {
		t.Fatalf("odd-count median: got %v want %v", got, int64(30*time.Second))
	}
	// Window larger than the chain: collects all 4 and stays on the upper
	// median rule.
	if got := MedianTimePast(tip, 11); got != int64(30*time.Second) {
		t.Fatalf("short-chain median: got %v want %v", got, int64(30*time.Second))
	}
}
