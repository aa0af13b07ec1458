package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/invariant"
	"bitcoinng/internal/mining"
	"bitcoinng/internal/protocol"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/types"
)

// newTestFleet builds a small mining Bitcoin-NG fleet straight on the kernel
// — no facade — with fast key blocks and microblocks so a few virtual
// minutes cover several epochs.
func newTestFleet(t *testing.T, nodes int, seed int64, storeURL string, invs []invariant.Invariant) *Fleet {
	t.Helper()
	params := types.DefaultParams()
	params.RetargetWindow = 0
	params.MaxBlockSize = 20_000
	params.TargetBlockInterval = 30 * time.Second
	params.MicroblockInterval = 5 * time.Second
	keys, err := Keys(seed, 0x10000, nodes)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Spec{
		Protocol:    protocol.BitcoinNG,
		Params:      params,
		Genesis:     types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget}),
		Seed:        seed,
		Keys:        keys,
		Net:         simnet.DefaultConfig(nodes, seed),
		StoreURL:    storeURL,
		StoreName:   func(i int) string { return fmt.Sprint("n", i) },
		Resume:      true,
		MinerStream: 0x20000,
		Invariants:  invs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	shares := mining.ExponentialShares(nodes, mining.DefaultExponent)
	for i := range f.Nodes() {
		if err := f.SetMiningRate(i, shares[i]/params.TargetBlockInterval.Seconds()); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// runChecked advances the fleet in invariant-check-sized slices.
func runChecked(f *Fleet, d time.Duration) {
	for end := f.Now() + d; f.Now() < end; {
		f.Run(15 * time.Second)
		f.Check(false)
	}
}

// TestRestartRecoversDurablePrefix pins the restart contract at its one home:
// at the instant Restart returns, the rebuilt node's chain tree is exactly
// genesis plus its durable prefix (nothing lost, nothing invented — Persist
// fires on every block that enters the tree, so the archive and the tree are
// the same set), the persistence hook is rewired, and catch-up sync is
// already chasing the blocks the network minted while the node was down. The
// run must end with the node converged and the recovery invariants
// (durable-prefix, resync-convergence) clean — on both store backends.
func TestRestartRecoversDurablePrefix(t *testing.T) {
	for _, storeURL := range []string{"mem:", "file:" + t.TempDir()} {
		f := newTestFleet(t, 5, 99, storeURL, invariant.Defaults(invariant.Options{
			ForkBound: 6, ConvergenceDepth: 2, SettleGrace: time.Minute,
		}))
		runChecked(f, 2*time.Minute)
		if err := f.Crash(1); err != nil {
			t.Fatal(err)
		}
		runChecked(f, 2*time.Minute)

		nd := f.Nodes()[1]
		durable := nd.Index.Hashes()
		if len(durable) == 0 {
			t.Fatal("node 1 had nothing durable at restart; the crash fired too early to exercise recovery")
		}
		if err := f.Restart(1); err != nil {
			t.Fatal(err)
		}
		if got, want := nd.Base().State.Store().Len(), len(durable)+1; got != want {
			t.Errorf("%s: restarted tree holds %d blocks, want exactly durable prefix + genesis = %d", storeURL, got, want)
		}
		for _, h := range durable {
			if !nd.Base().State.HasBlock(h) {
				t.Errorf("%s: durable block %s missing from restarted chain", storeURL, h.Short())
			}
		}
		if !nd.Base().Sync.Active() {
			t.Errorf("%s: restart did not kick catch-up sync", storeURL)
		}
		if nd.LastRestart != int64(f.Now()) {
			t.Errorf("%s: LastRestart = %d, want now %d", storeURL, nd.LastRestart, f.Now())
		}

		runChecked(f, 5*time.Minute)
		// Microblocks keep flowing every 5s, so exact tip equality would race
		// live production; caught-up means the chains share their prefix and
		// differ only by in-flight blocks. Pointer identity doesn't hold
		// across two nodes' trees; compare by hash.
		lo, hi := f.Nodes()[0].Base().State.Tip(), nd.Base().State.Tip()
		if lo.Height > hi.Height {
			lo, hi = hi, lo
		}
		if hi.AncestorAtHeight(lo.Height).Hash() != lo.Hash() || hi.Height-lo.Height > 4 {
			t.Errorf("%s: restarted node never caught up: node0 h=%d node1 h=%d sync=%v", storeURL,
				f.Nodes()[0].Base().State.Height(), nd.Base().State.Height(), nd.Base().Sync.Active())
		}
		for _, n := range nd.Base().State.MainChain()[1:] {
			if !nd.Index.Contains(n.Hash()) {
				t.Fatalf("%s: blocks accepted after restart are not being persisted", storeURL)
			}
		}
		f.Check(true)
		for _, v := range f.InvariantViolations() {
			t.Errorf("%s: invariant violation: %s", storeURL, v)
		}
	}
}

// TestCrashedNodeIsInert: while down, a node mines nothing, sends nothing,
// and receives nothing — and double Crash / Restart-of-a-running-node are
// errors rather than silent corruption.
func TestCrashedNodeIsInert(t *testing.T) {
	f := newTestFleet(t, 4, 7, "", nil)
	f.Run(90 * time.Second)
	if err := f.Restart(2); err == nil {
		t.Error("Restart of a running node did not error")
	}
	if err := f.Crash(2); err != nil {
		t.Fatal(err)
	}
	if err := f.Crash(2); err == nil {
		t.Error("double Crash did not error")
	}
	if err := f.Equivocate(2, nil, nil); err == nil {
		t.Error("a down node equivocated")
	}
	nd := f.Nodes()[2]
	heightAtCrash, foundAtCrash := nd.Base().State.Height(), nd.Miner.Found()
	f.Run(150 * time.Second)
	if got := nd.Base().State.Height(); got != heightAtCrash {
		t.Errorf("crashed node's chain moved from height %d to %d while down", heightAtCrash, got)
	}
	if got := nd.Miner.Found(); got != foundAtCrash {
		t.Errorf("crashed node's miner found %d blocks while down", got-foundAtCrash)
	}
	if f.Leader() == 2 {
		t.Error("a down node is reported as the epoch leader")
	}
	if err := f.Restart(2); err != nil {
		t.Fatal(err)
	}
	if f.Nodes()[0].Base().State.Height() <= heightAtCrash {
		t.Fatal("the network did not progress while node 2 was down; the test exercised nothing")
	}
}

// TestOrphanEvictionRunsRepeat is the drop-only reduction of chaos seeds 7 and
// 15, built by hand: five honest nodes, no adversary, no duplication or
// reordering — only a five-minute window in which 30 % of messages are lost.
// Lost parents leave their children in the orphan stash, children re-fetched
// from every peer stash again, and nodes overflow the 512-block bound and
// evict. Eviction used to take the first key of a map range, so which bucket
// went differed from run to run and so did the run; in arrival order every
// run must tell the same story byte for byte.
func TestOrphanEvictionRunsRepeat(t *testing.T) {
	run := func() (digest string, evicted int) {
		f := newTestFleet(t, 5, 7, "", nil)
		defer f.Close()
		f.Run(time.Minute)
		if err := f.SetLoss(0.3, 0, 0); err != nil {
			t.Fatal(err)
		}
		f.Run(5 * time.Minute)
		if err := f.SetLoss(0, 0, 0); err != nil {
			t.Fatal(err)
		}
		f.Run(2 * time.Minute)
		var b strings.Builder
		fmt.Fprintf(&b, "%+v\n%+v\n", *f.Report(), f.NetStats())
		for i, nd := range f.Nodes() {
			st := nd.Base().State
			fmt.Fprintf(&b, "node %d tip=%s height=%d evicted=%d\n", i, st.Tip().Hash(), st.Height(), st.OrphansEvicted())
			evicted += st.OrphansEvicted()
		}
		return b.String(), evicted
	}
	first, evicted := run()
	if evicted == 0 {
		t.Fatal("no node evicted an orphan; the run does not exercise the bound")
	}
	for i := 1; i < 4; i++ {
		if again, _ := run(); again != first {
			t.Fatalf("run %d differs from run 0 (%d orphans evicted):\n%s\nvs\n%s", i, evicted, first, again)
		}
	}
}

// TestBootRejectsUsedStoreWithoutResume: a fleet that must start at genesis
// refuses a store root that already holds a chain, and leaves it untouched.
func TestBootRejectsUsedStoreWithoutResume(t *testing.T) {
	storeURL := "file:" + t.TempDir()
	f := newTestFleet(t, 3, 5, storeURL, nil)
	f.Run(2 * time.Minute)
	blocks := f.Nodes()[0].Index.Len()
	if blocks == 0 {
		t.Fatal("first life persisted nothing")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	spec := f.spec
	spec.Resume = false
	if _, err := New(spec); err == nil {
		t.Fatal("New without Resume accepted a used store root")
	}
	spec.Resume = true
	g, err := New(spec)
	if err != nil {
		t.Fatalf("the refused root no longer resumes: %v", err)
	}
	defer g.Close()
	if got := g.Nodes()[0].Index.Len(); got != blocks {
		t.Errorf("resumed index holds %d blocks, want the first life's %d", got, blocks)
	}
	if got := int(g.Nodes()[0].Base().State.Store().Len()); got != blocks+1 {
		t.Errorf("resumed tree holds %d blocks, want durable prefix + genesis = %d", got, blocks+1)
	}
	if g.Now() == 0 {
		t.Error("resumed fleet's clock restarted at zero instead of the latest persisted timestamp")
	}
}
