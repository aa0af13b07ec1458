package simnet

import (
	"testing"
	"time"

	"bitcoinng/internal/sim"
)

// TestTimerArmedBeforeBumpDoesNotFire pins the crash guard of NodeEnv.After:
// a timer armed before the node's incarnation is bumped (a crash) does
// nothing when it comes due, while one armed after the bump runs, even when
// both are due at the same instant.
func TestTimerArmedBeforeBumpDoesNotFire(t *testing.T) {
	loop := sim.NewLoop(0)
	env := NewNodeEnv(loop, nil, 0, 1)
	var before, after int
	env.After(time.Second, func() { before++ })
	env.Bump()
	env.After(time.Second, func() { after++ })
	loop.RunFor(2 * time.Second)
	if before != 0 {
		t.Errorf("timer armed before Bump ran %d times, want 0", before)
	}
	if after != 1 {
		t.Errorf("timer armed after Bump ran %d times, want 1", after)
	}
}

// TestTimerResetTakesCurrentIncarnation pins the guard on a kept timer: a
// Reset binds it to the incarnation current at the Reset, so a timer re-armed
// before a bump stays silent and one re-armed after it runs.
func TestTimerResetTakesCurrentIncarnation(t *testing.T) {
	loop := sim.NewLoop(0)
	env := NewNodeEnv(loop, nil, 0, 1)
	runs := 0
	timer := env.After(time.Second, func() { runs++ })
	loop.RunFor(time.Second)
	timer.Reset(time.Second)
	env.Bump()
	loop.RunFor(time.Second)
	if runs != 1 {
		t.Fatalf("re-armed before Bump: %d runs, want only the first", runs)
	}
	timer.Reset(time.Second)
	loop.RunFor(time.Second)
	if runs != 2 {
		t.Errorf("re-armed after Bump: %d runs, want 2", runs)
	}
}
