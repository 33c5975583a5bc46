package asymfence

import "asymfence/internal/metrics"

// MetricsRegistry is the machine-wide metrics registry: a
// dependency-free, deterministic collection of named counters, gauges
// and fixed-bucket histograms. Attach one to a Config, a RunConfig
// (Options, RunBatch) or the Metrics field of FuzzOptions,
// ConformOptions or TraceOptions and every simulation exports its
// machine counters into it (under "machine"), the experiment engine its
// harness counters (under "engine"). Snapshots render sorted and
// integer-only, so identical runs are byte-identical at any worker
// count; wall-clock values are segregated into the snapshot's "timing"
// section. See internal/metrics and OBSERVABILITY.md.
//
// A nil *MetricsRegistry is valid and disables all collection at zero
// cost.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }
