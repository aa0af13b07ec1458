package bitcoinng

import (
	"testing"
	"time"

	"bitcoinng/internal/blockstore"
)

// faultParams is the small-scale NG configuration the fault tests share:
// fast key blocks and microblocks so a few virtual minutes cover several
// epochs.
func faultParams() Params {
	params := DefaultParams()
	params.RetargetWindow = 0
	params.TargetBlockInterval = 20 * time.Second
	params.MicroblockInterval = 2 * time.Second
	return params
}

// TestClusterLeaderCrashRestartResync crashes the current epoch leader
// mid-epoch, lets the network move on without it, then restarts it and
// requires full reconvergence — the cluster-harness mirror of the
// experiment-side restart tests, including the durable-prefix and
// resync-convergence invariants running online.
func TestClusterLeaderCrashRestartResync(t *testing.T) {
	c, err := New(6, WithSeed(11), WithParams(faultParams()), WithFunding(1000),
		WithInvariants(DefaultInvariants(InvariantOptions{
			ForkBound: 6, ConvergenceDepth: 2, SettleGrace: 40 * time.Second,
		})...))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(90 * time.Second)

	leader := c.Leader()
	if leader < 0 {
		t.Fatal("no epoch leader after 90s")
	}
	if err := c.Crash(leader); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(leader); err == nil {
		t.Error("double Crash did not error")
	}
	heightDown := c.Node(leader).Height()
	c.Run(90 * time.Second)

	// The network moved on without the crashed leader (a new epoch took
	// over), while the crashed node itself stayed frozen.
	if c.Node(leader).Height() != heightDown {
		t.Error("crashed node's chain advanced while down")
	}
	alive := (leader + 1) % c.Size()
	if c.Node(alive).Height() <= heightDown {
		t.Error("network did not progress past the crashed leader")
	}

	if err := c.Restart(leader); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Minute)

	if !c.Converged() {
		t.Error("cluster did not reconverge after leader restart")
	}
	if c.Node(leader).Height() <= heightDown {
		t.Error("restarted leader never caught up")
	}
	for _, v := range c.InvariantViolations() {
		t.Errorf("invariant violation: %s", v)
	}
}

// TestClusterStateDirProcessRestart exercises the true process-level restart
// path: a cluster with file-backed archives is run and abandoned, then a
// second cluster built over the same directory must come up with every
// node's durable prefix already in its chain before any new block flows.
func TestClusterStateDirProcessRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(4, WithSeed(12), WithParams(faultParams()), WithFunding(1000),
		WithStore("file:"+dir))
	if err != nil {
		t.Fatal(err)
	}
	c1.Run(2 * time.Minute)
	h1, tip1 := c1.Node(0).Height(), c1.Node(0).TipID()
	if h1 == 0 {
		t.Fatal("first cluster mined nothing")
	}

	c2, err := New(4, WithSeed(12), WithParams(faultParams()), WithFunding(1000),
		WithStore("file:"+dir))
	if err != nil {
		t.Fatal(err)
	}
	// Before any virtual time passes, the rebuilt nodes sit exactly on
	// their persisted prefixes.
	if got := c2.Node(0).Height(); got != h1 {
		t.Fatalf("rebuilt node 0 at height %d, want persisted %d", got, h1)
	}
	if got := c2.Node(0).TipID(); got != tip1 {
		t.Fatalf("rebuilt node 0 tip %s, want persisted %s", got.Short(), tip1.Short())
	}
	// And the rebuilt cluster keeps mining on top of the recovered chain.
	c2.Run(time.Minute)
	if c2.Node(0).Height() <= h1 {
		t.Error("rebuilt cluster did not extend the recovered chain")
	}
}

// TestClusterResumeDecodesEachRecordOnce counts the decodes of
// TestClusterStateDirProcessRestart's resume: the open scans read each
// record's header, which names its block and carries its times, and decode
// nothing; the boot replays decode each block once for the fleet (later
// nodes take the first one's resident bodies). The resume clock comes from
// the record headers, so no record is decoded for it.
func TestClusterResumeDecodesEachRecordOnce(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(4, WithSeed(12), WithParams(faultParams()), WithFunding(1000),
		WithStore("file:"+dir))
	if err != nil {
		t.Fatal(err)
	}
	c1.Run(2 * time.Minute)
	c2, err := New(4, WithSeed(12), WithParams(faultParams()), WithFunding(1000),
		WithStore("file:"+dir))
	if err != nil {
		t.Fatal(err)
	}
	records, decoded := 0, 0
	blocks := map[Hash]bool{}
	for _, n := range c2.nodes {
		records += n.n.Index.Len()
		decoded += n.n.Index.(*blockstore.Store).Decoded()
		for _, h := range n.n.Index.Hashes() {
			blocks[h] = true
		}
	}
	if records != 52 || len(blocks) != 13 {
		t.Fatalf("resumed %d records of %d blocks; the pinned fixture has 52 of 13", records, len(blocks))
	}
	if want := len(blocks); decoded != want {
		t.Errorf("resume decoded %d blocks, want %d: none in the scans and one per block in the replays", decoded, want)
	}
}

// TestClusterLossyLinks: under a lossy-link window (drops, duplicates,
// reorders) the cluster keeps making progress and, once links heal, fully
// reconverges. Also pins the SetLoss validation contract.
func TestClusterLossyLinks(t *testing.T) {
	c, err := New(5, WithSeed(13), WithParams(faultParams()), WithFunding(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoss(1.5, 0, 0); err == nil {
		t.Error("out-of-range drop probability accepted")
	}
	if err := c.SetLoss(0.2, 0.1, 0.15); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Minute)
	if c.Node(0).Height() == 0 {
		t.Error("no progress under lossy links")
	}
	if err := c.SetLoss(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Minute)
	if !c.Converged() {
		t.Error("cluster did not reconverge after links healed")
	}
	stats := c.NetStats()
	if stats.MessagesDropped == 0 {
		t.Error("lossy window dropped nothing")
	}
}

// TestClusterRestartPreservesTieBreakInputs pins the arrival-time replay
// semantics: a cluster rebuilt over the same state directory must see every
// recovered block under its original local arrival time, because the
// first-seen tie-break consumes ReceivedAt — a replay that stamped "now"
// instead could flip fork choice on the recovered prefix relative to the
// first life.
func TestClusterRestartPreservesTieBreakInputs(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(4, WithSeed(21), WithParams(faultParams()), WithFunding(1000),
		WithStore("file:"+dir))
	if err != nil {
		t.Fatal(err)
	}
	c1.Run(2 * time.Minute)
	st1 := c1.Node(0).Chain()
	main1 := st1.MainChain()
	if len(main1) < 2 {
		t.Fatal("first cluster mined nothing")
	}
	want := make(map[Hash]int64, len(main1))
	for _, n := range main1[1:] { // genesis never rides the archive
		want[n.Hash()] = st1.Store().ReceivedAt(n)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	c2, err := New(4, WithSeed(21), WithParams(faultParams()), WithFunding(1000),
		WithStore("file:"+dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2 := c2.Node(0).Chain()
	if got, wantTip := st2.Tip().Hash(), st1.Tip().Hash(); got != wantTip {
		t.Fatalf("rebuilt tip %s, want %s", got.Short(), wantTip.Short())
	}
	for _, n := range st2.MainChain()[1:] {
		at, ok := want[n.Hash()]
		if !ok {
			t.Errorf("rebuilt chain holds %s, absent from the first life", n.Hash().Short())
			continue
		}
		if got := st2.Store().ReceivedAt(n); got != at {
			t.Errorf("block %s replayed with ReceivedAt %d, want original %d",
				n.Hash().Short(), got, at)
		}
	}
}
