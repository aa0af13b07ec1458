package experiment

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"bitcoinng/internal/scenario"
)

func sweepCfg(seed int64, blocks int) Config {
	cfg := DefaultConfig(Bitcoin, 16, seed)
	cfg.TargetBlocks = blocks
	cfg.Params.TargetBlockInterval = 30 * time.Second
	return cfg
}

// TestSweepOrderAndDeterminism: a concurrent sweep returns results in input
// order, identical to running the points one by one.
func TestSweepOrderAndDeterminism(t *testing.T) {
	cfgs := []Config{sweepCfg(1, 3), sweepCfg(2, 4), sweepCfg(3, 5), sweepCfg(4, 3), sweepCfg(5, 4)}

	var want []*Result
	for _, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	got, err := Sweep(cfgs, 4) // forced pool width despite GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Config.Seed != cfgs[i].Seed {
			t.Errorf("result %d carries seed %d, want %d", i, got[i].Config.Seed, cfgs[i].Seed)
		}
		if !reflect.DeepEqual(got[i].Report, want[i].Report) {
			t.Errorf("result %d report diverged under the pool:\nseq: %+v\npool: %+v",
				i, want[i].Report, got[i].Report)
		}
	}
}

// TestSweepAggregatesErrors: failed points surface wrapped with their index,
// successful points still return.
func TestSweepAggregatesErrors(t *testing.T) {
	bad := sweepCfg(1, 3)
	bad.Nodes = 1 // below the 2-node minimum: Run fails
	bad2 := sweepCfg(2, 3)
	bad2.Nodes = 0
	cfgs := []Config{sweepCfg(3, 3), bad, sweepCfg(4, 3), bad2}

	results, err := Sweep(cfgs, 2)
	if err == nil {
		t.Fatal("want aggregated error")
	}
	if results[0] == nil || results[2] == nil {
		t.Error("successful points missing from results")
	}
	if results[1] != nil || results[3] != nil {
		t.Error("failed points returned results")
	}
	msg := err.Error()
	if !strings.Contains(msg, "sweep point 1") || !strings.Contains(msg, "sweep point 3") {
		t.Errorf("error lacks point indices: %v", msg)
	}
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) || len(joined.Unwrap()) != 2 {
		t.Errorf("want 2 joined errors, got %v", msg)
	}
}

// TestSweepRecoversPanics: a point that panics fails with the panic and its
// stack, and the points around it still return.
func TestSweepRecoversPanics(t *testing.T) {
	bad := sweepCfg(2, 3)
	bad.Scenario = scenario.New(scenario.At(time.Second, scenario.Step{
		Name: "explode",
		Do:   func(scenario.Runtime) error { panic("boom") },
	}))
	results, err := Sweep([]Config{sweepCfg(1, 3), bad, sweepCfg(3, 3)}, 2)
	if results[0] == nil || results[1] != nil || results[2] == nil {
		t.Errorf("results %v: want the panicking point alone missing", results)
	}
	if err == nil {
		t.Fatal("a panicking point returned no error")
	}
	if msg := err.Error(); !strings.Contains(msg, "sweep point 1: panic: boom") || !strings.Contains(msg, "runtime/debug.Stack") {
		t.Errorf("error lacks the panic or its stack: %v", msg)
	}
}

// TestSweepEmpty returns cleanly with no work.
func TestSweepEmpty(t *testing.T) {
	results, err := Sweep(nil, 4)
	if err != nil || results != nil {
		t.Fatalf("Sweep(nil) = %v, %v", results, err)
	}
}
