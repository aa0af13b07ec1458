package crypto

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
	"sync/atomic"
)

// CompactTarget is the 32-bit "nBits" representation of a 256-bit
// proof-of-work target, as used in Bitcoin block headers. The encoding is a
// base-256 floating point: the high byte is an exponent (digit count), the
// low 23 bits are the mantissa.
type CompactTarget uint32

// Difficulty-related errors.
var errNegativeTarget = fmt.Errorf("crypto: negative compact target")

var (
	bigOne = big.NewInt(1)
	// maxTarget is 2^256 - 1; work calculations divide by (target+1).
	maxTarget = new(big.Int).Sub(new(big.Int).Lsh(bigOne, 256), bigOne)
)

// EasiestTarget accepts every hash; useful for tests and the simulated miner
// where the scheduler, not the hash, decides block generation (§7 "Simulated
// Mining": regression-test mode skips difficulty validation).
const EasiestTarget CompactTarget = 0x227fffff

// Big expands the compact form to the full 256-bit target.
func (c CompactTarget) Big() *big.Int {
	mant := int64(c & 0x007fffff)
	exp := uint(c >> 24)
	if c&0x00800000 != 0 {
		mant = -mant // sign bit; never valid for targets but preserved
	}
	v := big.NewInt(mant)
	if exp <= 3 {
		return v.Rsh(v, 8*(3-exp))
	}
	return v.Lsh(v, 8*(exp-3))
}

// CompactFromBig compresses a 256-bit target into compact form, rounding the
// mantissa down as Bitcoin does.
func CompactFromBig(t *big.Int) CompactTarget {
	if t.Sign() < 0 {
		panic(errNegativeTarget)
	}
	bytes := uint((t.BitLen() + 7) / 8)
	var mant uint64
	if bytes <= 3 {
		mant = t.Uint64() << (8 * (3 - bytes))
	} else {
		mant = new(big.Int).Rsh(t, 8*(bytes-3)).Uint64()
	}
	// If the mantissa's top bit is set it would read as a sign bit; shift
	// one byte to clear it.
	if mant&0x00800000 != 0 {
		mant >>= 8
		bytes++
	}
	return CompactTarget(uint32(bytes)<<24 | uint32(mant))
}

// CheckProofOfWork reports whether hash, interpreted as a little-endian
// 256-bit integer (matching Bitcoin's convention for double-SHA256 digests),
// is at or below the target.
func CheckProofOfWork(hash Hash, target CompactTarget) bool {
	return hashToInt(hash).Cmp(target.Big()) <= 0
}

// Work is a 256-bit unsigned amount of proof of work in four 64-bit limbs,
// least significant first. As a value, a weight cannot be shared.
type Work [4]uint64

// Add returns w+x, saturating at 2^256-1.
func (w Work) Add(x Work) Work {
	var carry uint64
	for i := range w {
		w[i], carry = bits.Add64(w[i], x[i], carry)
	}
	if carry != 0 {
		return Work{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	}
	return w
}

// Cmp returns -1, 0 or +1 as w is less than, equal to or greater than x.
func (w Work) Cmp(x Work) int {
	for i := len(w) - 1; i >= 0; i-- {
		if c := cmp.Compare(w[i], x[i]); c != 0 {
			return c
		}
	}
	return 0
}

// workMemo is the last target WorkForTarget computed, with its work.
type workMemo struct {
	target CompactTarget
	work   Work
}

// lastWork is shared by the whole process: work is a pure function of the
// target, and targets change only at retargets (never in a simulation).
var lastWork atomic.Pointer[workMemo]

// WorkForTarget returns the expected number of hash evaluations needed to
// find a block at the given target: floor(2^256 / (target+1)), or 2^256-1
// for a zero or negative target. Chain weight is the sum of this quantity
// over the chain's proof-of-work blocks (§3 "the winning chain is the
// heaviest one").
func WorkForTarget(target CompactTarget) Work {
	if m := lastWork.Load(); m != nil && m.target == target {
		return m.work
	}
	work := maxTarget
	if t := target.Big(); t.Sign() > 0 {
		work = new(big.Int).Div(new(big.Int).Lsh(bigOne, 256), t.Add(t, bigOne))
		if work.Sign() == 0 {
			// Targets at or above 2^256 succeed on the first try.
			work.SetInt64(1)
		}
	}
	var be [32]byte
	work.FillBytes(be[:])
	m := &workMemo{target: target}
	for i := range m.work {
		m.work[i] = binary.BigEndian.Uint64(be[24-8*i:])
	}
	lastWork.Store(m)
	return m.work
}

// hashToInt interprets a digest as a little-endian integer, per Bitcoin's
// "hash below target" comparison.
func hashToInt(h Hash) *big.Int {
	var be [32]byte
	for i := range h {
		be[31-i] = h[i]
	}
	return new(big.Int).SetBytes(be[:])
}

// Retarget computes a new compact target so that blocks arriving at
// observed intervals move toward the desired interval: the classic
// difficulty adjustment newTarget = oldTarget * actual / expected, clamped
// to a factor of 4 in either direction as Bitcoin does (§5.2 "Resilience to
// Mining Power Variation" discusses the consequences of this tuning).
func Retarget(old CompactTarget, actual, expected float64) CompactTarget {
	if expected <= 0 || actual <= 0 {
		return old
	}
	ratio := actual / expected
	if ratio > 4 {
		ratio = 4
	} else if ratio < 0.25 {
		ratio = 0.25
	}
	t := new(big.Float).SetInt(old.Big())
	t.Mul(t, big.NewFloat(ratio))
	next, _ := t.Int(nil)
	if next.Sign() <= 0 {
		next.SetInt64(1)
	}
	if next.Cmp(maxTarget) > 0 {
		next.Set(maxTarget)
	}
	return CompactFromBig(next)
}
