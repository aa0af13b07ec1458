package bitcoinng

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"bitcoinng/internal/mempool"
)

// clusterGolden is the fingerprint of the scripted run below, recorded at the
// commit before the harness kernel was extracted (PR 13's tree). It is the
// cluster-side twin of the chaos seeds' pinned digests: a harness refactor
// that claims "byte-identical" must reproduce it unchanged. Re-record it only
// for a change that is MEANT to alter cluster behaviour, and say so.
//
// Re-recorded three times so far: when a confirmed transaction began leaving
// a tombstone in the pool, late relayed copies stopped being re-admitted and
// re-relayed (the load report and every tip stayed the same; the net=
// counters and TimeToPrune moved); when a sync batch began charging the one
// type byte per block its frame carries (net= BytesSent alone moved,
// 27169567 → 27169582); and when relaying nodes began fetching microblocks
// in compact form (BytesSent 27169582 → 20705798, MessagesSent 3968 → 4046,
// load P50/P90/P99 11.35/11.35/11.35 s → 4.41/4.41/5.35 s, MainChainBlocks
// and every tip height 89 → 90; TimeToPrune, PropagationP50/P75 and
// MaxQueueDelay moved by under 20 ms).
const clusterGolden = "c6bd38cb05b0d8f3"

// TestClusterGoldenFingerprint drives one small cluster through every path
// the harness owns — a scheduled partition/heal, a crash and restart of the
// epoch leader on file-backed stores (Reset + arrival-time replay + resync),
// and a short relayed Blast through bounded mempools — and pins the
// Report / NetStats / load-report / per-node-tip fingerprint.
func TestClusterGoldenFingerprint(t *testing.T) {
	params := faultParams()
	params.TxBatchInterval = 500 * time.Millisecond
	c, err := NewCluster(ClusterConfig{
		Nodes:         6,
		Seed:          31,
		Params:        params,
		FundPerNode:   1000,
		AutoMine:      true,
		RelayTxs:      true,
		StreamLoad:    &StreamLoadConfig{Lanes: 16},
		MempoolLimits: mempool.Limits{MaxTxs: 5000},
		BandwidthBPS:  1e6,
		StoreURL:      "file:" + t.TempDir(),
		Invariants: DefaultInvariants(InvariantOptions{
			ForkBound: 6, ConvergenceDepth: 2, SettleGrace: 40 * time.Second,
		}),
		Scenario: NewScenario(
			At(20*time.Second, Partition([]int{0, 1})),
			At(50*time.Second, Heal()),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Run(70 * time.Second)
	leader := c.Leader()
	if leader < 0 {
		t.Fatal("no epoch leader after 70s")
	}
	if err := c.Crash(leader); err != nil {
		t.Fatal(err)
	}
	c.Run(40 * time.Second)
	if err := c.Restart(leader); err != nil {
		t.Fatal(err)
	}
	load, err := c.Blast(BlastConfig{Rate: 10, Duration: time.Minute, Grace: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if load.Confirmed == 0 {
		t.Error("blast confirmed nothing; the golden run no longer exercises the load path")
	}
	if errs := c.ScenarioErrors(); len(errs) != 0 {
		t.Fatalf("scenario errors: %v", errs)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "now=%v leader=%d crashed=%d converged=%v\n", c.Now(), c.Leader(), leader, c.Converged())
	fmt.Fprintf(&b, "report=%+v\n", *c.Report())
	fmt.Fprintf(&b, "net=%+v\n", c.NetStats())
	fmt.Fprintf(&b, "load=%+v\n", *load)
	for i := 0; i < c.Size(); i++ {
		n := c.Node(i)
		fmt.Fprintf(&b, "node %d tip=%s height=%d key=%d micro=%d strategy=%s\n",
			i, n.TipID(), n.Height(), n.KeyHeight(), n.MicroblocksMined(), n.StrategyName())
	}
	for _, v := range c.CheckInvariants() {
		fmt.Fprintf(&b, "violation: %s\n", v)
	}
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:8]); got != clusterGolden {
		t.Errorf("cluster fingerprint %s, want golden %s\n%s", got, clusterGolden, b.String())
	}
}
