package metrics

import (
	"testing"

	"bitcoinng/internal/node"
	"bitcoinng/internal/types"
)

// TestShardedFlushOrder: Flush registers buffered events by (time, shard,
// shard-local order), the order the sequential engine records them in.
func TestShardedFlushOrder(t *testing.T) {
	b := newBuilder()
	sc := NewSharded(b.c, 3)
	gen := func(shard int, at int64) node.BlockID {
		h := b.id()
		sc.Shard(shard).BlockGenerated(shard, at, node.BlockInfo{
			ID: h, Parent: b.genesis.Hash(), Kind: types.KindPow, Time: at, Work: true, MinerID: shard,
		})
		return h
	}
	// Shard-local buffers are time-ordered; ties cross shards.
	s2a, s2b := gen(2, 1*sec), gen(2, 3*sec)
	s0a, s0b := gen(0, 3*sec), gen(0, 3*sec)
	s1a := gen(1, 2*sec)
	sc.Flush()
	want := []node.BlockID{s2a, s1a, s0a, s0b, s2b}
	for i, id := range want {
		if got := b.c.blocks[i+1].Info.ID; got != id {
			t.Fatalf("registry slot %d holds %v, want %v", i+1, got, id)
		}
	}
}

// TestShardedFlushDoesNotAllocate: after warm-up, a barrier merge reuses its
// scratch slice and sorts without reflection. The events are ones the
// collector drops (a duplicate generation, unknown acceptances and tips), so
// only Flush's own allocations are counted.
func TestShardedFlushDoesNotAllocate(t *testing.T) {
	b := newBuilder()
	sc := NewSharded(b.c, 4)
	recs := make([]node.Recorder, 4)
	for i := range recs {
		recs[i] = sc.Shard(i)
	}
	g := b.genesis.Hash()
	ghost := b.id()
	avg := testing.AllocsPerRun(100, func() {
		for k := int64(0); k < 64; k++ {
			r := recs[k%4]
			at := (k * 7919) % 50 // out of order across shards
			switch k % 3 {
			case 0:
				r.BlockGenerated(int(k%4), at, node.BlockInfo{ID: g})
			case 1:
				r.BlockAccepted(int(k%4), at, ghost)
			default:
				r.TipChanged(int(k%4), at, ghost, nil, nil)
			}
		}
		sc.Flush()
	})
	if avg != 0 {
		t.Fatalf("a barrier Flush allocates %.0f objects, want 0", avg)
	}
}
