package bitcoinng

import (
	"testing"
	"time"

	"bitcoinng/internal/mempool"
)

// TestRelayedCopyAfterConfirmationIsRefused is the regression test for a
// relayed transaction that reaches a node after the block confirming it has
// connected there. Without tombstones the pool admitted such a copy again,
// relayed it again and never removed it; with small, fast microblocks the
// dead entries at the head of Select's FIFO order filled the byte budget and
// stranded live transactions (this shape confirmed 1 325 of 2 360 and left
// 1 397 in the pools). Every transaction must confirm and every pool drain.
func TestRelayedCopyAfterConfirmationIsRefused(t *testing.T) {
	params := DefaultParams()
	params.RetargetWindow = 0
	params.TxBatchInterval = 500 * time.Millisecond
	params.MaxBlockSize = 100_000
	params.MicroblockInterval = 2 * time.Second
	c, err := NewCluster(ClusterConfig{
		Nodes:         4,
		Seed:          1,
		Params:        params,
		AutoMine:      true,
		RelayTxs:      true,
		StreamLoad:    &StreamLoadConfig{TxSize: 476, Lanes: 64},
		MempoolLimits: mempool.Limits{MaxTxs: 20_000},
		BandwidthBPS:  1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Node(0).MineBlock() // seat node 0 as the first leader at time zero

	load, err := c.Blast(BlastConfig{Rate: 40, Duration: time.Minute, Grace: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if load.Admitted == 0 || load.Confirmed != load.Admitted {
		t.Errorf("confirmed %d of %d admitted transactions (p90 %v)", load.Confirmed, load.Admitted, load.P90)
	}
	for i := 0; i < c.Size(); i++ {
		if n := c.Node(i).Client().Base().Pool.Len(); n != 0 {
			t.Errorf("node %d still pools %d transactions", i, n)
		}
	}
}
