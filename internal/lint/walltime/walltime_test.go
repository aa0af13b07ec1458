package walltime_test

import (
	"testing"

	"bitcoinng/internal/lint/linttest"
	"bitcoinng/internal/lint/walltime"
)

func TestDeterministicZone(t *testing.T) {
	linttest.Run(t, walltime.Analyzer, "bitcoinng/internal/sim/fx")
}

func TestLiveZone(t *testing.T) {
	linttest.Run(t, walltime.Analyzer, "live")
}

func TestDeterministicPrefixes(t *testing.T) {
	for _, p := range []string{
		"bitcoinng/internal/sim",
		"bitcoinng/internal/simnet",
		"bitcoinng/internal/chain",
		"bitcoinng/internal/experiment",
		"bitcoinng/internal/harness",
		"bitcoinng/internal/load",
		"bitcoinng/internal/wire",
		"bitcoinng/internal/chaos",
	} {
		if !walltime.Deterministic(p) {
			t.Errorf("Deterministic(%q) = false, want true", p)
		}
	}
	for _, p := range []string{
		"bitcoinng/internal/p2p",    // live harness: wall clock is its job
		"bitcoinng",                 // cluster harness wraps p2p
		"bitcoinng/cmd/ngbench",     // CLI timing is operator-facing
		"bitcoinng/internal/simnetx", // prefix must match whole path segments
	} {
		if walltime.Deterministic(p) {
			t.Errorf("Deterministic(%q) = true, want false", p)
		}
	}
}
