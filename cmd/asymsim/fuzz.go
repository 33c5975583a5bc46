package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"asymfence"
	"asymfence/internal/sim"
)

// fuzzCmd handles `asymsim fuzz`: seeded random racy litmus programs run
// under every fence design with the runtime invariant oracle enabled and
// deterministic timing faults injected. A clean campaign exits 0; an
// invariant violation prints a minimized reproducer and exits 1. Output
// is byte-reproducible for a fixed flag set.
func fuzzCmd(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("asymsim fuzz", flag.ExitOnError)
	seeds := fs.Int("seeds", 25, "number of generator seeds to try")
	start := fs.Uint64("start", 1, "first seed (shards compose: -start 1 -seeds 50, -start 51 -seeds 50)")
	cores := fs.Int("cores", 0, "thread count (0 = vary 2/4/8 per seed; must be a power of two)")
	ops := fs.Int("ops", 0, "operations per generated thread (0 = generator default)")
	noFaults := fs.Bool("no-faults", false, "disable deterministic fault injection")
	events := fs.Int("events", 64, "trace events kept for a violation reproducer")
	quiet := fs.Bool("q", false, "suppress per-seed progress lines on stderr")
	metricsOut := fs.String("metrics", "", "write the campaign's metrics snapshot to this file as JSON (\"-\" = stdout)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: asymsim fuzz [flags]\n\nflags:\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *cores != 0 {
		if err := (sim.Config{NCores: *cores}).Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "asymsim fuzz:", err)
			return 2
		}
	}

	reg := newCLIMetrics(*metricsOut)
	opts := asymfence.FuzzOptions{
		Metrics:     reg,
		Seeds:       *seeds,
		StartSeed:   *start,
		Cores:       *cores,
		OpsPerCore:  *ops,
		NoFaults:    *noFaults,
		TraceEvents: *events,
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	startT := time.Now()
	rep, err := asymfence.RunFuzz(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asymsim fuzz:", err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	if err := writeMetrics(reg, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "asymsim fuzz:", err)
		return 1
	}
	if rep.Violation != nil {
		fmt.Println(rep.Violation.Error())
		fmt.Fprintf(os.Stderr, "asymsim fuzz: FAIL: violation after %d seed(s), %d run(s) in %s\n",
			rep.Seeds, rep.Runs, time.Since(startT).Round(time.Millisecond))
		return 1
	}
	fmt.Printf("fuzz: %d seed(s), %d run(s): no invariant violations\n", rep.Seeds, rep.Runs)
	fmt.Fprintf(os.Stderr, "asymsim fuzz: clean in %s\n", time.Since(startT).Round(time.Millisecond))
	return 0
}
