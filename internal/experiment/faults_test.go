package experiment

import (
	"strings"
	"testing"
	"time"

	"bitcoinng/internal/harness"
	"bitcoinng/internal/invariant"
	"bitcoinng/internal/load"
	"bitcoinng/internal/scenario"
)

// TestCrashRestartReachesKernel: the restart contract itself is pinned once,
// where the code lives (internal/harness: TestRestartRecoversDurablePrefix,
// TestCrashedNodeIsInert). This is the measured-run facade's side of it: the
// runtime a Config's Scenario scripts against IS the kernel's Fleet, a
// Crash/Restart cycle scheduled through it recovers the durable prefix and
// reconverges with the recovery invariants clean, and step misuse surfaces
// as a scenario error rather than a failed run.
func TestCrashRestartReachesKernel(t *testing.T) {
	cfg := DefaultConfig(BitcoinNG, 5, 99)
	cfg.Params.MaxBlockSize = 20_000
	cfg.Params.TargetBlockInterval = 30 * time.Second
	cfg.Params.MicroblockInterval = 5 * time.Second
	cfg.TargetBlocks = 15
	cfg.Invariants = invariant.Defaults(invariant.Options{
		ForkBound: 6, ConvergenceDepth: 2, SettleGrace: time.Minute,
	})
	cfg.InvariantInterval = 15 * time.Second

	var durableAtRestart, treeAtRestart int
	cfg.Scenario = scenario.New(
		scenario.At(2*time.Minute, scenario.Crash(1)),
		scenario.At(3*time.Minute, scenario.Crash(1)), // already down: a step error
		scenario.At(4*time.Minute, scenario.Call("restart-and-check", func(rt scenario.Runtime) error {
			nd := rt.(*harness.Fleet).Nodes()[1]
			durableAtRestart = nd.Index.Len()
			if err := rt.Restart(1); err != nil {
				return err
			}
			treeAtRestart = nd.Base().State.Store().Len()
			return nil
		})),
		scenario.At(9*time.Minute, scenario.Call("settle", func(scenario.Runtime) error { return nil })),
	)

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ScenarioErrors) != 1 || !strings.Contains(res.ScenarioErrors[0].Error(), "already down") {
		t.Errorf("scenario errors = %v, want exactly the double crash", res.ScenarioErrors)
	}
	if durableAtRestart == 0 {
		t.Error("node 1 had nothing durable at restart; the crash fired too early to exercise recovery")
	}
	if got, want := treeAtRestart, durableAtRestart+1; got != want {
		t.Errorf("restarted tree holds %d blocks, want exactly durable prefix + genesis = %d", got, want)
	}
	for _, v := range res.InvariantViolations {
		t.Errorf("invariant violation: %s", v)
	}
}

// TestRunRefusesUsedStoreRoot is the regression pin for the one boot path
// that never reset the ledger: a second Run over the same file: root used to
// fail deep inside chain.New ("utxo: output already exists") with the connect
// cache off, and with it on silently redid genesis and every delta on top of
// the previous run's recovered ledger. A measured run starts at genesis and
// t=0, so a used root is now refused up front — in both cache modes — and a
// fresh root reproduces the first run exactly.
func TestRunRefusesUsedStoreRoot(t *testing.T) {
	for _, cacheOff := range []bool{true, false} {
		cfg := DefaultConfig(BitcoinNG, 4, 17)
		cfg.Params.MaxBlockSize = 20_000
		cfg.Params.TargetBlockInterval = 30 * time.Second
		cfg.Params.MicroblockInterval = 5 * time.Second
		cfg.TargetBlocks = 6
		cfg.Parallelism = 1
		cfg.DisableConnectCache = cacheOff
		cfg.StoreURL = "file:" + t.TempDir()
		first, err := Run(cfg)
		if err != nil {
			t.Fatalf("cacheOff=%v: first run: %v", cacheOff, err)
		}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "must start at genesis") {
			t.Errorf("cacheOff=%v: second run over the used root: err = %v, want the start-at-genesis refusal", cacheOff, err)
		}
		cfg.StoreURL = "file:" + t.TempDir()
		again, err := Run(cfg)
		if err != nil {
			t.Fatalf("cacheOff=%v: fresh-root rerun: %v", cacheOff, err)
		}
		if *again.Report != *first.Report || again.NetStats != first.NetStats {
			t.Errorf("cacheOff=%v: fresh-root rerun diverged:\n%+v\n%+v", cacheOff, *first.Report, *again.Report)
		}
	}
}

// TestLoadReportReadsNoEvictedBody: on a compacting file-backed fleet whose
// reference node crashes and restarts, the load report equals the full-walk
// oracle's, and building it reloaded no body that compaction evicted: the
// runner's tracker recorded each block while it was resident. The eviction
// count is taken before the oracle runs, because the oracle reloads them.
func TestLoadReportReadsNoEvictedBody(t *testing.T) {
	cfg := DefaultConfig(BitcoinNG, 4, 23)
	cfg.Params.MaxBlockSize = 20_000
	cfg.Params.TargetBlockInterval = 30 * time.Second
	cfg.Params.MicroblockInterval = 5 * time.Second
	cfg.TargetBlocks = 30
	cfg.Offered = 20
	cfg.StoreURL = "file:" + t.TempDir()
	cfg.CompactDepth = 8
	cfg.InvariantInterval = 15 * time.Second
	cfg.Scenario = scenario.New(
		scenario.At(2*time.Minute, scenario.Crash(0)),
		scenario.At(3*time.Minute, scenario.Restart(0)),
	)
	r, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }() // a teardown error is not what this test checks
	res, err := r.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ScenarioErrors) > 0 {
		t.Fatalf("scenario errors: %v", res.ScenarioErrors)
	}
	ref := r.referenceNode()
	if ref.ID != 0 {
		t.Fatalf("reference node is %d, want the restarted node 0", ref.ID)
	}
	tip := ref.Base().State.Tip()
	evicted := 0
	for n := tip; n != nil; n = n.Parent {
		if n.Resident() == nil {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatalf("no body of the reference chain (height %d) is evicted after the run", tip.Height)
	}
	want := load.BuildReport(load.Open, cfg.Offered, 0, res.SimTime,
		res.Load.Offered, res.Load.Admitted, load.Confirmations(tip))
	if *res.Load != *want {
		t.Errorf("load report %+v, the full walk gives %+v", *res.Load, *want)
	}
	if res.Load.Confirmed == 0 {
		t.Error("the run confirmed nothing")
	}
	t.Logf("%d of %d reference-chain bodies evicted; %d confirmed", evicted, tip.Height+1, res.Load.Confirmed)
}
