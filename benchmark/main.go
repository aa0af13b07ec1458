// Command benchmark is the repository's reference benchmark: four workloads,
// end-to-end metrics with fixed regression bounds, and an outside-in cost
// map of the layers. README.md in this directory explains the method;
// BENCHMARK.json at the repository root is the contract it is run under.
//
// Every measurement happens in a child process: the connect cache, the
// verify pool and the per-transaction signature memo are process-wide, so a
// second run in one process would be served from what the first one filled.
// The parent re-executes its own binary once per child, sequentially, and
// reports medians over the children.
//
//	bash benchmark/run.sh --workload scale1000 --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -all [-seed 1] [-out benchmark/results/x.json]
//	bash benchmark/run.sh -aa  [-seed 1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	start := readHost()
	var (
		workloadName = flag.String("workload", "", "workload to run: scale1000 | blast16 | filestore8 | livesync3")
		seed         = flag.Int64("seed", 1, "workload seed; the only thing a run's inputs derive from")
		seconds      = flag.Int("seconds", nominalSeconds, "how long one run measures; scales the number of timed children")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics from untraced children; 1: per-layer metrics from the traced child")
		all          = flag.Bool("all", false, "run every workload, timed and traced, and print every metric")
		aa           = flag.Bool("aa", false, "run two complete sets of the same binary and compare them against the bounds")
		out          = flag.String("out", "", "with -all: also write the results as JSON to this file")
		traceDir     = flag.String("trace-dir", "benchmark/results", "where the traced child writes trace-<workload>.json")
		short        = flag.Bool("short", false, "shrink virtual durations (the directory's own tests)")
		child        = flag.Bool("child", false, "internal: run one workload once in this process and print one JSON line")
		check        = flag.Bool("check", false, "internal: child runs invariant.Defaults")
		traceFile    = flag.String("trace-file", "", "internal: child records spans and unit costs and writes them here")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	switch {
	case *child:
		spec := childSpec{Workload: *workloadName, Seed: *seed, Short: *short, Check: *check, TracePath: *traceFile}
		res, err := runChild(spec, start)
		if err != nil {
			fail(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fail(err)
		}
	case *aa:
		ok, err := runAA(os.Stdout, parent{seed: *seed, seconds: *seconds, short: *short, traceDir: *traceDir})
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *all:
		set, err := runSet(parent{seed: *seed, seconds: *seconds, short: *short, traceDir: *traceDir})
		if err != nil {
			fail(err)
		}
		set.print(os.Stdout)
		if *out != "" {
			if err := set.write(*out); err != nil {
				fail(err)
			}
		}
		if !set.correct() {
			os.Exit(1)
		}
	case *workloadName != "":
		w, ok := findWorkload(*workloadName)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		p := parent{seed: *seed, seconds: *seconds, short: *short, traceDir: *traceDir}
		var res *runResult
		var err error
		if *trace == 0 {
			res, err = p.timedRun(w)
		} else {
			res, err = p.tracedRun(w)
		}
		if err != nil {
			fail(err)
		}
		for _, problem := range res.problems {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.name, problem)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res.contractLine()); err != nil {
			fail(err)
		}
		if len(res.problems) > 0 {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}
