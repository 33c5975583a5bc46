package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"asymfence"
)

// traceCmd handles `asymsim trace <group>:<app>`: one traced run,
// exported as Chrome trace_event JSON (Perfetto-loadable) or JSONL.
// The workload spec may come before or after the flags.
func traceCmd(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("asymsim trace", flag.ExitOnError)
	design := fs.String("design", "WS+", "fence design (S+, WS+, SW+, W+, Wee, C-Fence)")
	out := fs.String("trace-out", "", "output file (default stdout)")
	format := fs.String("format", "chrome", "export format: chrome (Perfetto/chrome://tracing) or jsonl")
	interval := fs.Int64("interval", 1000, "interval-sample period in cycles (negative disables)")
	events := fs.String("events", "all", "event classes: comma list of fence,wb,cpu,dir,noc, or all")
	maxEvents := fs.Int("max-events", 0, "bound the event buffer (ring, oldest dropped; 0 = unbounded)")
	cores := fs.Int("cores", 8, "core count (power of two)")
	scale := fs.Float64("scale", 0.25, "execution-time run scale")
	horizon := fs.Int64("horizon", 0, "throughput-run length in cycles (0 = default)")
	metricsOut := fs.String("metrics", "", "write the run's metrics snapshot to this file as JSON (\"-\" = stdout)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: asymsim trace <group>:<app> [flags]\n"+
			"       e.g. asymsim trace cilk:fib -trace-out fib.json\n\nflags:\n")
		fs.PrintDefaults()
	}

	var spec string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		spec, args = args[0], args[1:]
	}
	fs.Parse(args)
	if spec == "" {
		if fs.NArg() != 1 {
			fs.Usage()
			return 2
		}
		spec = fs.Arg(0)
	}
	group, app, ok := strings.Cut(spec, ":")
	if !ok {
		fmt.Fprintf(os.Stderr, "asymsim trace: workload spec must be <group>:<app>, e.g. cilk:fib (groups: %s)\n",
			strings.Join(asymfence.WorkloadGroups, ", "))
		return 2
	}
	d, err := asymfence.ParseDesign(*design)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asymsim trace:", err)
		return 2
	}
	mask, ok := asymfence.ParseEventMask(*events)
	if !ok {
		fmt.Fprintf(os.Stderr, "asymsim trace: bad -events %q (comma list of fence,wb,cpu,dir,noc, or all)\n", *events)
		return 2
	}
	if *format != "chrome" && *format != "jsonl" {
		fmt.Fprintf(os.Stderr, "asymsim trace: bad -format %q (chrome or jsonl)\n", *format)
		return 2
	}

	reg := newCLIMetrics(*metricsOut)
	res, err := asymfence.TraceWorkload(ctx, group, app, d, asymfence.TraceOptions{
		Metrics: reg,
		Cores:   *cores, Scale: *scale, Horizon: *horizon,
		Mask: mask, MaxEvents: *maxEvents, SampleInterval: *interval,
	})
	if err != nil {
		// A DeadlockError's message already carries the full per-core
		// and per-module state dump.
		fmt.Fprintln(os.Stderr, "asymsim trace:", err)
		return 1
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "asymsim trace:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	if *format == "jsonl" {
		err = res.WriteJSONL(bw)
	} else {
		err = res.WriteChrome(bw)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "asymsim trace:", err)
		return 1
	}
	if err := writeMetrics(reg, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "asymsim trace:", err)
		return 1
	}
	dropped := ""
	if res.Dropped > 0 {
		dropped = fmt.Sprintf(" (%d oldest dropped by -max-events)", res.Dropped)
	}
	fmt.Fprintf(os.Stderr, "asymsim trace: %s under %v: %d cycles, %d events%s, %d interval rows\n",
		spec, d, res.Cycles, len(res.Events), dropped, len(res.Samples))
	return 0
}
