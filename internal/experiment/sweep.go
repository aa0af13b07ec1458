package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Sweep runs independent experiment configurations concurrently under a
// bounded worker pool and returns their results in input order. Each
// configuration owns its loop, network, workload, and collector, so sweep
// points are embarrassingly parallel; only the content-addressed connect
// cache is shared, and it is both concurrency-safe and result-neutral.
//
// parallelism bounds the number of concurrently executing points; 0 takes
// GOMAXPROCS. Configurations that leave Parallelism unset (0) are run on the
// single-threaded engine: with the pool already saturating the cores,
// intra-run sharding would only oversubscribe them. An explicitly set
// Parallelism is honored.
//
// On failures the returned slice still carries every successful result (nil
// at failed indices) and the error joins every failure, each wrapped with
// its point index. A point that panics fails with the panic and its stack
// as its error; the other points run on.
func Sweep(cfgs []Config, parallelism int) ([]*Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(cfgs) {
		parallelism = len(cfgs)
	}

	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				cfg := cfgs[i]
				if cfg.Parallelism == 0 {
					cfg.Parallelism = 1
				}
				res, err := runRecovered(cfg)
				if err != nil {
					errs[i] = &pointError{i, err}
					continue
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// pointError is one failed sweep point.
type pointError struct {
	index int
	err   error
}

func (e *pointError) Error() string { return fmt.Sprintf("sweep point %d: %v", e.index, e.err) }

func (e *pointError) Unwrap() error { return e.err }

// PointErr returns the error point i failed with, out of the error Sweep
// returned; nil if the point did not fail.
func PointErr(err error, i int) error {
	var joined interface{ Unwrap() []error }
	if errors.As(err, &joined) {
		for _, e := range joined.Unwrap() {
			if pe, ok := e.(*pointError); ok && pe.index == i {
				return pe.err
			}
		}
	}
	return nil
}

// runRecovered is Run with a panic turned into the point's error.
func runRecovered(cfg Config) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return Run(cfg)
}
