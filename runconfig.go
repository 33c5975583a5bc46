package asymfence

import (
	"io"
)

// RunConfig is the execution-environment configuration of the two entry
// points that memoize simulations: Options (experiments) embeds it and
// RunBatch takes it, so the worker pool, progress narration, job
// accounting, metrics collection and the persistent measurement store
// are spelled the same way for both, and every field is honored.
//
// Every field uses "unset means default" semantics: the zero value is a
// valid configuration (default pool, no narration, no accounting, no
// metrics, no persistence).
//
// RunFuzz, RunConform and TraceWorkload never memoize and run no worker
// pool, so their option structs carry only the fields they read:
// Progress and Metrics (FuzzOptions, ConformOptions), or Metrics alone
// (TraceOptions).
type RunConfig struct {
	// Jobs bounds the simulation worker pool (<=0: GOMAXPROCS;
	// 1: fully sequential execution). Tables are byte-identical at any
	// setting; only wall-clock changes.
	Jobs int
	// Progress, when non-nil, receives per-job progress lines
	// (done/total, cache and store hits, elapsed) while a run executes.
	Progress io.Writer
	// Stats, when non-nil, is filled with the run's job accounting on
	// return (including on error).
	Stats *RunStats
	// Metrics, when non-nil, receives the run's machine and engine
	// counters (see MetricsRegistry). Sharing one registry across
	// concurrent jobs is safe; the deterministic sections of its
	// snapshots are identical at any Jobs setting.
	Metrics *MetricsRegistry
	// Store, when non-nil, is an open persistent measurement store
	// (see OpenStore) layered read-through/write-behind under the
	// process-wide in-memory cache: warm configurations load in
	// milliseconds instead of re-simulating, in any process. The
	// caller owns the handle and must Close it to flush write-behind
	// records.
	Store *MeasurementStore
	// StoreDir, when non-empty and Store is nil, opens (creating if
	// necessary) the measurement store rooted there for the duration
	// of the run and closes it — flushing pending writes — before
	// returning. Use Store instead to share one handle across runs.
	StoreDir string
}

// RunStats summarizes the engine's job accounting for one run.
type RunStats struct {
	// Jobs is the number of simulation jobs the run submitted.
	Jobs int
	// CacheHits of those were served from the in-memory measurement
	// cache (or joined an identical in-flight job) without simulating.
	CacheHits int
	// StoreHits were served from the persistent measurement store
	// (RunConfig.Store/StoreDir) without simulating.
	StoreHits int
	// Simulated jobs actually executed.
	Simulated int
}

// resolveStore returns the run's persistent tier: the caller-owned
// Store if set, else a freshly opened one rooted at StoreDir (opened
// reports that the run must close it), else nil.
func (c RunConfig) resolveStore() (st *MeasurementStore, opened bool, err error) {
	if c.Store != nil {
		return c.Store, false, nil
	}
	if c.StoreDir == "" {
		return nil, false, nil
	}
	st, err = OpenStore(c.StoreDir, StoreOptions{Metrics: c.Metrics})
	if err != nil {
		return nil, false, err
	}
	return st, true, nil
}
