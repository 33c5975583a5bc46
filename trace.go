package asymfence

import (
	"context"
	"fmt"
	"io"
	"strings"

	"asymfence/internal/experiments"
	"asymfence/internal/fence"
	"asymfence/internal/trace"
)

// TraceEvent is one recorded simulator event; see internal/trace and
// OBSERVABILITY.md for the per-kind schema.
type TraceEvent = trace.Event

// IntervalSample is one per-core cycle-breakdown delta row.
type IntervalSample = trace.Sample

// EventMask selects traced event classes.
type EventMask = trace.Mask

// ParseEventMask parses a comma-separated class list ("fence,dir,noc";
// "all") into an EventMask.
func ParseEventMask(s string) (EventMask, bool) { return trace.ParseMask(s) }

// TraceOptions configures TraceWorkload; the zero value traces every
// event class with quick-run workload sizing. See experiments.TraceOptions.
type TraceOptions struct {
	// Metrics, when non-nil, receives the run's machine counters (see
	// MetricsRegistry).
	Metrics *MetricsRegistry

	// Cores (default 8).
	Cores int
	// Scale sizes execution-time workloads (default 0.25).
	Scale float64
	// Horizon is the throughput-group run length (default 60k cycles).
	Horizon int64
	// Mask selects event classes (zero = all).
	Mask EventMask
	// MaxEvents bounds the event buffer ring-style (zero = unbounded).
	MaxEvents int
	// SampleInterval is the interval-metrics period in cycles
	// (default 1000; negative disables sampling).
	SampleInterval int64
}

// TraceResult is a traced workload execution. Its exporters write the
// deterministic JSONL and Chrome trace_event formats documented in
// OBSERVABILITY.md.
type TraceResult struct {
	// Group, App and Design identify the run.
	Group, App string
	Design     Design
	// Cycles is the run length.
	Cycles int64
	// Events is the recorded stream, in emission order.
	Events []TraceEvent
	// Samples is the per-core interval series.
	Samples []IntervalSample
	// Dropped counts ring-overwritten events (0 when unbounded).
	Dropped uint64
}

// WriteJSONL writes the trace as JSON Lines (one meta header, then one
// object per event and per interval row).
func (t *TraceResult) WriteJSONL(w io.Writer) error {
	return trace.WriteJSONL(w, t.Events, t.Samples, t.Dropped)
}

// WriteChrome writes the trace in the Chrome trace_event JSON format,
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
func (t *TraceResult) WriteChrome(w io.Writer) error {
	return trace.WriteChrome(w, t.Events, t.Samples)
}

// WorkloadGroups lists the workload groups TraceWorkload accepts.
var WorkloadGroups = experiments.Groups

// WorkloadApps returns the application names of one workload group
// ("cilk", "ustm" or "stamp"), nil for an unknown group.
func WorkloadApps(group string) []string { return experiments.Apps(group) }

// ParseDesign parses a fence-design name ("S+", "WS+", "SW+", "W+",
// "Wee", "C-Fence"; case-insensitive, "splus"-style aliases accepted).
func ParseDesign(s string) (Design, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "s+", "splus", "s":
		return SPlus, nil
	case "ws+", "wsplus", "ws":
		return WSPlus, nil
	case "sw+", "swplus", "sw":
		return SWPlus, nil
	case "w+", "wplus", "w":
		return WPlus, nil
	case "wee", "weefence":
		return Wee, nil
	case "c-fence", "cfence", "cf":
		return CFenceDesign, nil
	}
	var names []string
	for _, d := range append(fence.AllDesigns, fence.CFence) {
		names = append(names, d.String())
	}
	return 0, fmt.Errorf("asymfence: unknown fence design %q (valid: %s)",
		s, strings.Join(names, ", "))
}

// TraceWorkload executes one (group, app) workload under the given
// design with cycle-level event tracing and interval sampling enabled,
// e.g. TraceWorkload(ctx, "cilk", "fib", asymfence.WSPlus,
// TraceOptions{}). Cancel ctx to abort the run; the error then wraps
// context.Canceled.
func TraceWorkload(ctx context.Context, group, app string, d Design, opts TraceOptions) (*TraceResult, error) {
	run, err := experiments.RunTraced(ctx, group, app, d, experiments.TraceOptions{
		NCores:         opts.Cores,
		Scale:          experiments.Scale(opts.Scale),
		Horizon:        opts.Horizon,
		Mask:           opts.Mask,
		MaxEvents:      opts.MaxEvents,
		SampleInterval: opts.SampleInterval,
		Metrics:        opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return &TraceResult{
		Group: group, App: app, Design: d,
		Cycles:  run.Meas.Cycles,
		Events:  run.Events,
		Samples: run.Samples,
		Dropped: run.Dropped,
	}, nil
}
