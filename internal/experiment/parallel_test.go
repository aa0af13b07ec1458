package experiment

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"bitcoinng/internal/scenario"
)

// adversarialConfig is a small but hostile run: a censor (Bitcoin-NG only),
// a latency spike, and a partition with heal, exercising the global control
// paths the sharded engine must serialize at barriers.
func adversarialConfig(p Protocol, parallelism int) Config {
	cfg := DefaultConfig(p, 48, 7)
	cfg.TargetBlocks = 12
	cfg.Params.MaxBlockSize = 6000
	cfg.Params.TargetBlockInterval = 60 * time.Second
	cfg.Params.MicroblockInterval = 5 * time.Second
	if p == BitcoinNG {
		cfg.Censors = []int{3}
	}
	cfg.Parallelism = parallelism
	sc := scenario.New(
		scenario.At(40*time.Second, scenario.LatencySpike(3)),
		scenario.At(60*time.Second, scenario.LatencySpike(1)),
		scenario.At(80*time.Second, scenario.Partition([]int{0, 1, 2, 3, 4, 5, 6, 7})),
		scenario.At(140*time.Second, scenario.Heal()),
	)
	cfg.Scenario = sc
	return cfg
}

// reportKey flattens the deterministic parts of a Result for comparison.
func reportKey(t *testing.T, res *Result) string {
	t.Helper()
	var sb strings.Builder
	FprintReport(&sb, "run", res.Report)
	return sb.String()
}

// TestShardedRunMatchesSequential is the engine's core guarantee: the same
// seed produces an identical report (and identical full metrics struct, net
// stats, and event count) on the single-threaded loop and on the sharded
// engine at several shard counts.
func TestShardedRunMatchesSequential(t *testing.T) {
	for _, proto := range []Protocol{Bitcoin, BitcoinNG} {
		seq, err := Run(adversarialConfig(proto, 1))
		if err != nil {
			t.Fatalf("%s sequential: %v", proto, err)
		}
		if len(seq.ScenarioErrors) > 0 {
			t.Fatalf("%s sequential scenario errors: %v", proto, seq.ScenarioErrors)
		}
		if seq.Report.Blocks == 0 {
			t.Fatalf("%s sequential: empty run", proto)
		}
		for _, par := range []int{2, 4} {
			got, err := Run(adversarialConfig(proto, par))
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", proto, par, err)
			}
			if !reflect.DeepEqual(got.Report, seq.Report) {
				t.Errorf("%s parallelism %d report diverged:\nseq: %+v\npar: %+v",
					proto, par, seq.Report, got.Report)
			}
			if got.NetStats != seq.NetStats {
				t.Errorf("%s parallelism %d net stats diverged: %+v vs %+v",
					proto, par, got.NetStats, seq.NetStats)
			}
			if got.Events != seq.Events {
				t.Errorf("%s parallelism %d events %d, want %d",
					proto, par, got.Events, seq.Events)
			}
			if got.SimTime != seq.SimTime {
				t.Errorf("%s parallelism %d sim time %v, want %v",
					proto, par, got.SimTime, seq.SimTime)
			}
			if k1, k2 := reportKey(t, seq), reportKey(t, got); k1 != k2 {
				t.Errorf("%s parallelism %d formatted report diverged:\n%s\n%s",
					proto, par, k1, k2)
			}
		}
	}
}

// TestShardedRunWithEquivocation covers the driver-initiated send path:
// a Call step publishing conflicting microblocks at a barrier.
func TestShardedRunWithEquivocation(t *testing.T) {
	mk := func(par int) Config {
		cfg := DefaultConfig(BitcoinNG, 32, 11)
		cfg.TargetBlocks = 10
		cfg.Params.MaxBlockSize = 4000
		cfg.Params.TargetBlockInterval = 50 * time.Second
		cfg.Params.MicroblockInterval = 5 * time.Second
		cfg.Parallelism = par
		cfg.Scenario = scenario.New(
			scenario.At(70*time.Second, scenario.Equivocate(0, nil, nil)),
		)
		return cfg
	}
	seq, err := Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(mk(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Report, par.Report) {
		t.Errorf("equivocation run diverged:\nseq: %+v\npar: %+v", seq.Report, par.Report)
	}
	if len(seq.ScenarioErrors) != len(par.ScenarioErrors) {
		t.Errorf("scenario errors differ: %v vs %v", seq.ScenarioErrors, par.ScenarioErrors)
	}
}

// TestParallelismDefaults: explicit parallelism above the node count is
// clamped and still runs.
func TestParallelismClamped(t *testing.T) {
	cfg := DefaultConfig(Bitcoin, 4, 1)
	cfg.TargetBlocks = 2
	cfg.Params.TargetBlockInterval = 30 * time.Second
	cfg.Parallelism = 64
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Blocks == 0 {
		t.Fatal("clamped run produced no blocks")
	}
}

// TestShardedOverlappingLatencySpikes pins the LatencySpike contract on the
// sharded engine: spikes are absolute factors that replace one another, the
// lookahead is re-derived at the barrier after every spike (2x widens it,
// the 5x overlap widens it further, 1 restores it), and the report stays
// byte-identical to the sequential engine's.
func TestShardedOverlappingLatencySpikes(t *testing.T) {
	mk := func(par int) Config {
		cfg := DefaultConfig(BitcoinNG, 32, 13)
		cfg.TargetBlocks = 10
		cfg.Params.MaxBlockSize = 6000
		cfg.Params.TargetBlockInterval = 60 * time.Second
		cfg.Params.MicroblockInterval = 5 * time.Second
		cfg.Parallelism = par
		cfg.Scenario = scenario.New(
			scenario.At(30*time.Second, scenario.LatencySpike(2)),
			scenario.At(50*time.Second, scenario.LatencySpike(5)), // overlap: absolute 5x, not 10x
			scenario.At(70*time.Second, scenario.LatencySpike(1)), // spike -> restore
		)
		return cfg
	}
	seq, err := Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.ScenarioErrors) > 0 {
		t.Fatalf("sequential scenario errors: %v", seq.ScenarioErrors)
	}
	for _, par := range []int{2, 4} {
		got, err := Run(mk(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(got.Report, seq.Report) {
			t.Errorf("parallelism %d report diverged under overlapping spikes:\nseq: %+v\npar: %+v",
				par, seq.Report, got.Report)
		}
		if got.NetStats != seq.NetStats {
			t.Errorf("parallelism %d net stats diverged: %+v vs %+v", par, got.NetStats, seq.NetStats)
		}
	}

	// A non-positive spike factor surfaces as a scenario step error on both
	// engines instead of corrupting the lookahead.
	for _, par := range []int{1, 4} {
		cfg := mk(par)
		cfg.Scenario = scenario.New(scenario.At(30*time.Second, scenario.LatencySpike(0)))
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(res.ScenarioErrors) != 1 {
			t.Errorf("parallelism %d: scenario errors = %v, want exactly the rejected spike", par, res.ScenarioErrors)
		}
	}
}
