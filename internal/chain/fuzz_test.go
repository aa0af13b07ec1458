package chain

import (
	"encoding/binary"
	"math/big"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/types"
)

// FuzzNextTarget drives the retargeting schedule with adversarial header
// histories: arbitrary key-block timestamps (decreasing, negative, huge)
// and arbitrary per-block compact targets, over windows crossing the
// genesis boundary. NextTarget must never panic, and whenever a retarget
// fires the result must stay within Bitcoin's 4x clamp of the previous
// target (the §5.2 mining-power-variation rule).
//
//	go test -fuzz=FuzzNextTarget -fuzztime=30s ./internal/chain
func FuzzNextTarget(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(16), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2})
	f.Add(uint8(2), []byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, window uint8, raw []byte) {
		params := types.DefaultParams()
		params.RetargetWindow = int(window)

		genesis := types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget})
		store := NewStore(genesis, nil)

		// Each 10 raw bytes derive one key block: 8 bytes timestamp (any
		// int64), 2 bytes target offset folded into a valid compact range.
		parent := store.Genesis()
		for off := 0; off+10 <= len(raw) && parent.Height < 64; off += 10 {
			ts := int64(binary.LittleEndian.Uint64(raw[off : off+8]))
			tweak := binary.LittleEndian.Uint16(raw[off+8 : off+10])
			target := crypto.EasiestTarget - crypto.CompactTarget(tweak)

			prevTarget := BlockTarget(parent.KeyAncestor.Block())
			blk := &types.KeyBlock{
				Header: types.KeyBlockHeader{
					PowHeader: types.PowHeader{
						Prev:      parent.Hash(),
						TimeNanos: ts,
						Target:    target,
					},
				},
				SimulatedPoW: true,
			}
			next := NextTarget(parent, params)
			// The schedule is defined at every height; off-retarget heights
			// must echo the last key target exactly.
			if w := params.RetargetWindow; w > 1 && (parent.KeyHeight+1)%uint64(w) != 0 {
				if next != prevTarget {
					t.Fatalf("height %d (window %d): target changed off-schedule: %#x -> %#x",
						parent.KeyHeight+1, w, uint32(prevTarget), uint32(next))
				}
			}
			// Whenever it moves, it stays within the 4x clamp (in target
			// terms the value scales by at most 4 either way; compact
			// rounding may add a hair, so compare against 5x bounds) — or
			// lands exactly on the 2^256-1 ceiling's compact rounding, which
			// Retarget clamps oversized targets (like EasiestTarget) to.
			old := prevTarget.Big()
			got := next.Big()
			hi := new(big.Int).Mul(old, big.NewInt(5))
			lo := new(big.Int).Div(old, big.NewInt(5))
			maxT := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
			ceiling := crypto.CompactFromBig(maxT).Big()
			inClamp := got.Cmp(hi) <= 0 && (lo.Sign() == 0 || got.Cmp(lo) >= 0)
			if !inClamp && got.Cmp(ceiling) != 0 {
				t.Fatalf("retarget outside clamp: %#x -> %#x", uint32(prevTarget), uint32(next))
			}
			store.Insert(blk, ts)
			parent, _ = store.Get(blk.Hash())
		}

		// MedianTimePast must be total on whatever chain we built.
		_ = MedianTimePast(parent, 11)
	})
}
