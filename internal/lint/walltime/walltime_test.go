package walltime_test

import (
	"testing"

	"bitcoinng/internal/lint/linttest"
	"bitcoinng/internal/lint/walltime"
)

// TestDeterministicZone checks that a wall-clock read under a
// deterministic-zone import path gets the absolute message.
func TestDeterministicZone(t *testing.T) {
	linttest.RunModule(t, walltime.Analyzer, "bitcoinng/internal/sim/fx")
}

// TestLiveZone checks that a wall-clock read outside the zone gets the
// request for an annotation.
func TestLiveZone(t *testing.T) {
	linttest.RunModule(t, walltime.Analyzer, "live")
}
