package chaos

import (
	"testing"
	"time"

	"bitcoinng/internal/experiment"
	"bitcoinng/internal/invariant"
	"bitcoinng/internal/scenario"
	"bitcoinng/internal/validate"
)

// majorityCrashConfig builds the acceptance scenario fresh for one engine
// variant: a Bitcoin-NG network where a majority of nodes — including
// whoever leads the current epoch, mid-epoch — crash simultaneously, stay
// down across key-block boundaries, then restart, recover their durable
// prefixes, and catch up over the sync protocol. Each call returns an
// independent config (fresh scenario closures, fresh crashed-set) so the
// differential variants cannot leak state into each other.
func majorityCrashConfig(parallelism int, cacheOff bool) experiment.Config {
	const nodes = 7
	cfg := experiment.DefaultConfig(experiment.BitcoinNG, nodes, 4242)
	cfg.Params.MaxBlockSize = 20_000
	cfg.Params.TargetBlockInterval = 30 * time.Second
	cfg.Params.MicroblockInterval = 5 * time.Second
	cfg.TargetBlocks = 15
	cfg.Parallelism = parallelism
	cfg.DisableConnectCache = cacheOff
	cfg.Invariants = invariant.Defaults(invariant.Options{
		ForkBound: 6, ConvergenceDepth: 2, SettleGrace: time.Minute,
	})
	cfg.InvariantInterval = 15 * time.Second

	var crashed []int
	cfg.Scenario = scenario.New(
		scenario.At(3*time.Minute, scenario.Call("crash-majority", func(rt scenario.Runtime) error {
			// The current epoch leader goes down first — mid-epoch, with
			// signed microblocks already durable — then enough others to
			// make it 4 of 7.
			leader := rt.Leader()
			if leader < 0 {
				leader = 0
			}
			crashed = append(crashed[:0], leader)
			if err := rt.Crash(leader); err != nil {
				return err
			}
			for i := 0; len(crashed) < nodes/2+1; i++ {
				if i == leader {
					continue
				}
				crashed = append(crashed, i)
				if err := rt.Crash(i); err != nil {
					return err
				}
			}
			return nil
		})),
		scenario.At(5*time.Minute, scenario.Call("restart-majority", func(rt scenario.Runtime) error {
			for _, i := range crashed {
				if err := rt.Restart(i); err != nil {
					return err
				}
			}
			return nil
		})),
		scenario.At(10*time.Minute, scenario.Call("settle", func(scenario.Runtime) error { return nil })),
	)
	return cfg
}

// TestMajorityCrashConverges is the PR's acceptance scenario: majority
// crash including the mid-epoch leader, zero invariant violations, and a
// byte-identical chaos digest across both sim engines and both cache modes.
func TestMajorityCrashConverges(t *testing.T) {
	var base string
	for i, v := range diffVariants {
		if i > 0 && testing.Short() {
			break // the differential replay triples the cost
		}
		res, err := experiment.Run(majorityCrashConfig(v.parallelism, v.cacheOff))
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if len(res.ScenarioErrors) != 0 {
			t.Fatalf("%s: scenario errors: %v", v.name, res.ScenarioErrors)
		}
		for _, viol := range res.InvariantViolations {
			t.Errorf("%s: invariant violation: %s", v.name, viol)
		}
		d := Digest(res)
		if i == 0 {
			base = d
			continue
		}
		if d != base {
			t.Errorf("digest diverges between %s and %s: %s",
				diffVariants[0].name, v.name, firstDiff(base, d))
		}
	}
}

// restartHeavyConfig is a run that lives on the restart path: on file-backed
// stores (so every replay decodes fresh, cold block objects) one node after
// another crashes and comes back twenty seconds later, ten times over, while
// the rest keep mining. Each call returns an independent config.
func restartHeavyConfig(cacheOff bool) experiment.Config {
	const nodes = 5
	cfg := experiment.DefaultConfig(experiment.BitcoinNG, nodes, 2424)
	cfg.Params.MaxBlockSize = 20_000
	cfg.Params.TargetBlockInterval = 30 * time.Second
	cfg.Params.MicroblockInterval = 5 * time.Second
	cfg.TargetBlocks = 12
	cfg.StoreURL = "file:"
	cfg.DisableConnectCache = cacheOff
	cfg.Invariants = invariant.Defaults(invariant.Options{
		ForkBound: 6, ConvergenceDepth: 2, SettleGrace: time.Minute,
	})
	cfg.InvariantInterval = 15 * time.Second
	var steps []scenario.TimedStep
	for round := 0; round < 10; round++ {
		at := time.Duration(60+30*round) * time.Second
		steps = append(steps,
			scenario.At(at, scenario.Crash(round%nodes)),
			scenario.At(at+20*time.Second, scenario.Restart(round%nodes)))
	}
	cfg.Scenario = scenario.New(steps...)
	return cfg
}

// TestRestartHeavyCacheOnOff is soundness test (f)'s new scenario: ten index
// replays with the connect cache on — every replayed block vouched for by the
// first life's entries — and off — every signature verified again — must tell
// the same story byte for byte.
func TestRestartHeavyCacheOnOff(t *testing.T) {
	var digests [2]string
	for i, cacheOff := range []bool{false, true} {
		before := validate.Shared().Stats().Vouched
		res, err := experiment.Run(restartHeavyConfig(cacheOff))
		if err != nil {
			t.Fatalf("cacheOff=%v: %v", cacheOff, err)
		}
		if len(res.ScenarioErrors) != 0 {
			t.Fatalf("cacheOff=%v: scenario errors: %v", cacheOff, res.ScenarioErrors)
		}
		for _, viol := range res.InvariantViolations {
			t.Errorf("cacheOff=%v: invariant violation: %s", cacheOff, viol)
		}
		vouched := validate.Shared().Stats().Vouched - before
		if cacheOff != (vouched == 0) {
			t.Errorf("cacheOff=%v: %d transactions vouched for; the replays should adopt with the cache and only with it", cacheOff, vouched)
		}
		digests[i] = Digest(res)
	}
	if digests[0] != digests[1] {
		t.Errorf("digest diverges between cache on and off: %s", firstDiff(digests[0], digests[1]))
	}
}
