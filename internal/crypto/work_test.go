package crypto

import (
	"math/big"
	"sync"
	"testing"
)

// referenceWork is floor(2^256 / (target+1)) in math/big, the formula
// WorkForTarget computed before chain weights became fixed-width: 2^256-1
// for a zero or negative target, 1 for a target at or above 2^256.
func referenceWork(target CompactTarget) *big.Int {
	t := target.Big()
	if t.Sign() <= 0 {
		return new(big.Int).Set(maxTarget)
	}
	denom := new(big.Int).Add(t, bigOne)
	work := new(big.Int).Div(new(big.Int).Lsh(bigOne, 256), denom)
	if work.Sign() == 0 {
		work.SetInt64(1)
	}
	return work
}

// bigOf converts w back to math/big for comparison with the reference.
func bigOf(w Work) *big.Int {
	v := new(big.Int)
	for i := len(w) - 1; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(w[i]))
	}
	return v
}

// TestWorkForTargetMatchesReference checks WorkForTarget against the
// math/big formula for every exponent byte, with mantissas that include the
// sign bit, and pins the two ends: target 0 is 2^256-1 work, and a target
// at or above 2^256 is one.
func TestWorkForTargetMatchesReference(t *testing.T) {
	for exp := uint32(0); exp < 256; exp++ {
		for _, mant := range []uint32{0, 1, 0xff, 0x00ffff, 0x123456, 0x7fffff, 0x800000, 0x800001, 0xffffff} {
			target := CompactTarget(exp<<24 | mant)
			if got, want := bigOf(WorkForTarget(target)), referenceWork(target); got.Cmp(want) != 0 {
				t.Fatalf("WorkForTarget(%#08x) = %#x, want %#x", uint32(target), got, want)
			}
		}
	}
	for _, tc := range []struct {
		target CompactTarget
		want   *big.Int
	}{
		{0, maxTarget},
		{0x01800001, maxTarget}, // negative: the sign bit set
		{0x03000001, new(big.Int).Lsh(bigOne, 255)},
		{0x21010000, bigOne}, // exactly 2^256
		{EasiestTarget, bigOne},
	} {
		if got := bigOf(WorkForTarget(tc.target)); got.Cmp(tc.want) != 0 {
			t.Errorf("WorkForTarget(%#08x) = %#x, want %#x", uint32(tc.target), got, tc.want)
		}
	}
}

// TestWorkForTargetRepeatDoesNotAllocate pins the memo: asking again for
// the work of the target asked last allocates nothing, which is every
// block of a simulation, where targets never change.
func TestWorkForTargetRepeatDoesNotAllocate(t *testing.T) {
	WorkForTarget(EasiestTarget)
	if a := testing.AllocsPerRun(100, func() { WorkForTarget(EasiestTarget) }); a != 0 {
		t.Fatalf("a repeated WorkForTarget allocates %v times, want 0", a)
	}
}

// TestWorkForTargetConcurrent has two goroutines ask for alternating
// targets, so each keeps replacing the memo the other reads; every value
// must still be the reference's.
func TestWorkForTargetConcurrent(t *testing.T) {
	targets := []CompactTarget{0x1d00ffff, EasiestTarget, 0, 0x03000001}
	want := make([]*big.Int, len(targets))
	for i, target := range targets {
		want[i] = referenceWork(target)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (i + g) % len(targets)
				if got := bigOf(WorkForTarget(targets[k])); got.Cmp(want[k]) != 0 {
					t.Errorf("WorkForTarget(%#08x) = %#x, want %#x", uint32(targets[k]), got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzWork checks Add and Cmp against math/big on two values given as
// limbs, least significant first. The seeds carry through every byte and
// sit on the saturation edge.
func FuzzWork(f *testing.F) {
	const ones = ^uint64(0)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(ones, ones, ones, ones>>8, uint64(1), uint64(0), uint64(0), uint64(0))                          // carries through 31 bytes
	f.Add(ones, uint64(0), uint64(0), uint64(0), uint64(1), uint64(0), uint64(0), uint64(0))              // carries across a limb
	f.Add(ones, ones, ones, ones, uint64(0), uint64(0), uint64(0), uint64(0))                             // exactly 2^256-1
	f.Add(ones, ones, ones, ones, uint64(1), uint64(0), uint64(0), uint64(0))                             // one past: saturates
	f.Add(uint64(0), uint64(0), uint64(0), uint64(1)<<63, uint64(0), uint64(0), uint64(0), uint64(1)<<63) // exactly 2^256
	f.Add(ones, ones, ones, ones>>1, uint64(0), uint64(0), uint64(0), uint64(1)<<63)                      // 2^256-1, no carry out
	f.Fuzz(func(t *testing.T, x0, x1, x2, x3, y0, y1, y2, y3 uint64) {
		wx, wy := Work{x0, x1, x2, x3}, Work{y0, y1, y2, y3}
		x, y := bigOf(wx), bigOf(wy)
		sum := new(big.Int).Add(x, y)
		if sum.Cmp(maxTarget) > 0 {
			sum.Set(maxTarget)
		}
		if got := bigOf(wx.Add(wy)); got.Cmp(sum) != 0 {
			t.Fatalf("%#x + %#x = %#x, want %#x", x, y, got, sum)
		}
		if got, want := wx.Cmp(wy), x.Cmp(y); got != want {
			t.Fatalf("Cmp(%#x, %#x) = %d, want %d", x, y, got, want)
		}
	})
}
