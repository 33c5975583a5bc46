// Command asymsim regenerates the paper's evaluation artifacts and
// provides single-run observability tooling.
//
// Usage:
//
//	asymsim [flags] <experiment>           regenerate a paper artifact
//	asymsim -list                          list experiment ids
//	asymsim -version                       print build provenance
//	asymsim [flags] run <group>:<app>      one workload under every design
//	asymsim trace <group>:<app> [flags]    traced run (Perfetto/JSONL export)
//	asymsim serve [flags] <experiment>     run with a live observability server
//	asymsim fuzz [flags]                   litmus-fuzz under invariant checkers
//	asymsim conform [flags]                cross-domain litmus conformance sweep
//	asymsim hwbench [flags]                asymmetric fences on real silicon
//
// where <experiment> is one of fig8, fig9, fig10, fig11, fig12, table4,
// headline, or all. Each prints the same rows/series the paper reports
// (see DESIGN.md §5 for the mapping and the paper's reference values).
//
//	asymsim fig8                 # CilkApps execution time, 8 cores
//	asymsim -scale 0.25 fig11    # quick STAMP run
//	asymsim -md all > results.md # everything, as markdown
//
// Simulations run on a bounded worker pool (-j N; -seq forces one
// worker) against a process-wide measurement cache, so experiments
// that repeat each other's runs (fig10 repeats fig9's; the headline
// repeats fig8/fig9/fig11's; "all" benefits most) reuse results
// instead of re-simulating. Tables are byte-identical at any -j:
// simulations are deterministic and results merge in submission order.
// Per-job progress and a cache-accounting summary go to stderr (-q
// silences the per-job lines); tables go to stdout. Interrupting the
// process (Ctrl-C) cancels the in-flight simulations promptly.
//
// The trace subcommand records the cycle-level event stream of one
// (workload, design) run — fence lifecycle, write-buffer bounces,
// directory transactions, mesh packets — plus per-core interval
// metrics, and exports Chrome trace_event JSON (open in
// ui.perfetto.dev) or JSON Lines. See OBSERVABILITY.md for the schema.
//
//	asymsim trace cilk:fib -trace-out /tmp/t.json
//	asymsim trace ustm:List -design Wee -format jsonl -interval 500
//
// The hwbench subcommand leaves the simulator entirely: it runs the
// real-goroutine ports of the Cilk-THE deque and the TLRW STM read-lock
// (asymfence/runtime, membarrier-backed asymmetric fences vs their
// symmetric baselines) across thread counts on this machine, records
// hardware/kernel provenance, and prints measured speedups side by side
// with the simulator's Fig. 8/9 predictions (checked in as
// BENCH_PR9_HW.json; see HARDWARE.md).
//
// The conform subcommand cross-checks all three execution domains on
// generated litmus programs: the reference TSO machine enumerates each
// program's allowed final states, then the cycle simulator (every
// design, fault-injected schedules) and real goroutines
// (asymfence/runtime fences, every available mode) must stay inside
// their closures. Violations are minimized and the campaign exits 1.
// -report writes a byte-reproducible asymfence-conform/v1 JSON file;
// -quick is the CI shape (see ROBUSTNESS.md §8).
//
// Every subcommand accepts -metrics out.json: the run's machine and
// harness counters are collected into a metrics registry and written as
// a deterministic JSON snapshot on exit ("-" writes to stdout; see
// OBSERVABILITY.md for the schema). The serve subcommand additionally
// exposes the registry live over HTTP — /metrics in JSON or Prometheus
// text format, /debug/pprof for the Go profiler, /progress for the
// running batch — while an experiment executes:
//
//	asymsim serve -listen :6060 all
//	curl localhost:6060/metrics?format=json
//
// The experiment, run and serve paths accept -store dir, the persistent
// content-addressed measurement store: warm configurations load from
// disk instead of re-simulating, across process restarts, with
// byte-identical tables.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asymfence"
	"asymfence/internal/buildinfo"
	"asymfence/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := mainCmd(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

// mainCmd dispatches one asymsim invocation (args excludes the program
// name) and returns the process exit code.
func mainCmd(ctx context.Context, args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "trace":
			return traceCmd(ctx, args[1:])
		case "hwbench":
			return hwbenchCmd(ctx, args[1:])
		case "fuzz":
			return fuzzCmd(ctx, args[1:])
		case "conform":
			return conformCmd(ctx, args[1:])
		case "serve":
			return serveCmd(ctx, args[1:])
		}
	}

	fs := flag.NewFlagSet("asymsim", flag.ExitOnError)
	cores := fs.Int("cores", 8, "core count (power of two; Table 2 default is 8)")
	scale := fs.Float64("scale", 1.0, "execution-time run scale (1.0 = full)")
	horizon := fs.Int64("horizon", 0, "throughput-run length in cycles (0 = default)")
	jobs := fs.Int("j", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	seq := fs.Bool("seq", false, "run simulations sequentially (same as -j 1)")
	quiet := fs.Bool("q", false, "suppress per-job progress lines on stderr")
	md := fs.Bool("md", false, "emit markdown tables")
	list := fs.Bool("list", false, "list experiment ids with descriptions and exit")
	metricsOut := fs.String("metrics", "", "write the run's metrics snapshot to this file as JSON (\"-\" = stdout)")
	storeDir := fs.String("store", "", "persistent measurement store directory (warm configs load from disk instead of re-simulating)")
	version := fs.Bool("version", false, "print build provenance and exit")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: asymsim [flags] <experiment>\n"+
			"       asymsim [flags] run <group>:<app>     (e.g. run cilk:fib, run ustm:List)\n"+
			"       asymsim trace <group>:<app> [flags]   (asymsim trace -h for flags)\n"+
			"       asymsim serve [flags] <experiment>    (asymsim serve -h for flags)\n"+
			"       asymsim fuzz [flags]                  (asymsim fuzz -h for flags)\n"+
			"       asymsim conform [flags]               (asymsim conform -h for flags)\n"+
			"       asymsim hwbench [flags]               (asymsim hwbench -h for flags)\n\n"+
			"experiments: %v\n\nflags:\n",
			asymfence.ExperimentIDs)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *version {
		fmt.Println("asymsim", buildinfo.Get())
		return 0
	}
	// Reject a nonsensical machine shape before any experiment starts
	// (same typed validation the simulator applies on Run).
	if err := (sim.Config{NCores: *cores}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "asymsim:", err)
		return 2
	}
	if *list {
		for _, e := range asymfence.Experiments() {
			fmt.Printf("  %-9s %s\n", e.ID, e.Description)
		}
		return 0
	}
	workers := *jobs
	if *seq {
		workers = 1
	}
	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}
	var stats asymfence.RunStats
	reg := newCLIMetrics(*metricsOut)
	cfg := asymfence.RunConfig{
		Jobs: workers, Progress: progress, Stats: &stats, Metrics: reg,
		StoreDir: *storeDir,
	}
	if fs.NArg() == 2 && fs.Arg(0) == "run" {
		err := runOne(ctx, fs.Arg(1), *cores, *scale, *horizon, cfg)
		if err == nil {
			err = writeMetrics(reg, *metricsOut)
		}
		return exitCode(err)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	id := fs.Arg(0)
	// Resolve the id up front so a typo fails before any table of a
	// multi-experiment run has been printed.
	exp, ok := asymfence.LookupExperiment(id)
	if !ok {
		fmt.Fprintf(os.Stderr, "asymsim: unknown experiment %q (valid: %v; see -list)\n",
			id, asymfence.ExperimentIDs)
		return 2
	}
	start := time.Now()
	tables, err := exp.Run(ctx, asymfence.Options{
		RunConfig: cfg,
		Cores:     *cores, Scale: *scale, Horizon: *horizon,
	})
	if err != nil {
		return exitCode(err)
	}
	for _, t := range tables {
		if *md {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.String())
		}
	}
	if err := writeMetrics(reg, *metricsOut); err != nil {
		return exitCode(err)
	}
	fmt.Fprintf(os.Stderr, "asymsim: %s: %d jobs (%d simulated, %d cache hits, %d store hits) in %s\n",
		id, stats.Jobs, stats.Simulated, stats.CacheHits, stats.StoreHits, time.Since(start).Round(time.Millisecond))
	return 0
}

// exitCode reports err on stderr and maps it to the process exit code:
// 0 for nil, 130 for an interrupted run, 1 for any other failure.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(os.Stderr, "asymsim:", err)
	if errors.Is(err, context.Canceled) {
		return 130
	}
	return 1
}
