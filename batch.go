package asymfence

import (
	"context"
	"fmt"

	"asymfence/internal/experiments"
	"asymfence/internal/experiments/runner"
)

// SimJob identifies one simulation: a single (workload, design, machine
// size) run. Jobs with equal canonical content (the unused sizing field
// is ignored) share one cached measurement.
type SimJob struct {
	// Group is the workload group: "cilk", "ustm" or "stamp".
	Group string
	// App is the application name within the group (see WorkloadApps).
	App    string
	Design Design
	// Cores is the simulated core count.
	Cores int
	// Scale sizes execution-time runs (cilk, stamp); ignored by ustm.
	Scale float64
	// Horizon is the throughput-run length in cycles (ustm only).
	Horizon int64
}

// SimPanicError is the typed failure a panicking simulation is
// converted into: the worker recovers the panic and fails only that
// job, so one bad simulation cannot take down the host process.
// Surface it with errors.As on any RunBatch or experiment error.
type SimPanicError = runner.PanicError

// RunBatch executes a flat batch of simulation jobs on a bounded worker
// pool against the process-wide measurement cache, backed by the
// persistent store when cfg.Store/StoreDir is set. Results return
// positionally — results[i] belongs to jobs[i], whatever the
// scheduling — so callers merge deterministically. Cancel ctx to abort;
// the error then wraps context.Canceled.
func RunBatch(ctx context.Context, jobs []SimJob, cfg RunConfig) ([]*WorkloadMeasurement, error) {
	st, opened, err := cfg.resolveStore()
	if err != nil {
		return nil, fmt.Errorf("asymfence: batch: %w", err)
	}
	eng := experiments.NewEngine(experiments.EngineOptions{
		Workers: cfg.Jobs, Progress: cfg.Progress, Metrics: cfg.Metrics, Store: st,
	})
	specs := make([]runner.Spec, len(jobs))
	for i, j := range jobs {
		specs[i] = runner.Spec{
			Group: j.Group, App: j.App, Design: j.Design,
			Cores: j.Cores, Scale: j.Scale, Horizon: j.Horizon,
		}
	}
	ms, err := eng.RunSpecs(ctx, specs)
	if cfg.Stats != nil {
		es := eng.Stats()
		*cfg.Stats = RunStats{Jobs: es.Jobs, CacheHits: es.Hits, StoreHits: es.StoreHits, Simulated: es.Simulated}
	}
	if opened {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return ms, err
}
