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
