package main

import (
	"syscall"
	"time"
)

// hostSample is one reading of the host's clocks: wall time, process CPU
// time (user+sys) and the peak resident set so far.
type hostSample struct {
	wall      time.Time
	cpu       time.Duration
	maxRSSKiB int64
}

// readHost is the benchmark's only source of host time. Everything it
// returns is a measurement about a run; nothing read here is ever fed into
// a simulation, a seed or a correctness digest.
func readHost() hostSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero reading
	// would show up as cpu_s = 0 and fail the finite/positive metric check.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSample{
		wall:      time.Now(), //nglint:allow walltime the benchmark measures host cost; readHost is its single wall-clock/getrusage read and never feeds simulated time, seeds or digests
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKiB: int64(ru.Maxrss),
	}
}

// secondsSince is the wall-clock distance between two samples.
func (s hostSample) secondsSince(earlier hostSample) float64 {
	return s.wall.Sub(earlier.wall).Seconds()
}

// cpuSecondsSince is the process CPU time spent between two samples.
func (s hostSample) cpuSecondsSince(earlier hostSample) float64 {
	return (s.cpu - earlier.cpu).Seconds()
}

// deadlineAfter returns a channel that fires once d of host time has passed.
func deadlineAfter(d time.Duration) <-chan time.Time {
	return time.After(d) //nglint:allow walltime failure deadline for the live TCP sync, which runs on the host clock; it decides only whether a run is reported as failed
}
