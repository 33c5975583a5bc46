package asymfence

import (
	"context"
	"errors"
	"fmt"
	"io"

	"asymfence/internal/check"
	"asymfence/internal/faults"
	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/trace"
	"asymfence/internal/workloads/litmus"
)

// FuzzOptions configures RunFuzz. Zero fields take defaults; the zero
// value is a usable quick-smoke configuration.
type FuzzOptions struct {
	// Progress, when non-nil, receives one line per completed seed.
	Progress io.Writer
	// Metrics, when non-nil, receives every run's machine counters (see
	// MetricsRegistry).
	Metrics *MetricsRegistry

	// Seeds is how many generator seeds to try (default 25).
	Seeds int
	// StartSeed is the first seed (default 1); seed s covers
	// StartSeed..StartSeed+Seeds-1, so shards compose.
	StartSeed uint64
	// Cores fixes the thread count; 0 lets each seed pick 2, 4 or 8.
	Cores int
	// OpsPerCore bounds each generated thread (0 = generator default).
	OpsPerCore int
	// NoFaults disables the deterministic fault injector, leaving only
	// the litmus generator's own schedule diversity.
	NoFaults bool
	// TraceEvents sizes the reproducer's trailing event window
	// (default 64).
	TraceEvents int
	// Designs selects the designs to run each seed under (default
	// fence.AllDesigns — all five of the paper's designs).
	Designs []fence.Design
}

// FuzzReport summarizes a RunFuzz campaign. With a fixed FuzzOptions the
// report (and any violation reproducer in it) is byte-reproducible: the
// generator, the machine and the fault injector are all seeded and
// deterministic.
type FuzzReport struct {
	// Seeds is the number of seeds exercised.
	Seeds int
	// Runs is the number of simulations executed (seeds × designs),
	// excluding minimization reruns.
	Runs int
	// Violation is the first invariant violation found, already
	// minimized and carrying a full reproducer; nil if the campaign was
	// clean.
	Violation *check.ViolationError
}

// RunFuzz generates random racy litmus programs and runs each under the
// configured fence designs with every runtime invariant checker enabled
// and (by default) deterministic timing faults injected. It stops at the
// first violation, minimizes the offending programs by nop-substitution,
// and returns the violation with its reproducer attached. A non-nil
// error reports an infrastructure failure (deadlock, cancellation, bad
// config) rather than an invariant violation.
func RunFuzz(ctx context.Context, opts FuzzOptions) (*FuzzReport, error) {
	if opts.Seeds == 0 {
		opts.Seeds = 25
	}
	if opts.StartSeed == 0 {
		opts.StartSeed = 1
	}
	if opts.TraceEvents == 0 {
		opts.TraceEvents = 64
	}
	designs := opts.Designs
	if len(designs) == 0 {
		designs = fence.AllDesigns
	}
	rep := &FuzzReport{}
	for s := 0; s < opts.Seeds; s++ {
		seed := opts.StartSeed + uint64(s)
		al := mem.NewAllocator(0x1000)
		g := litmus.Generate(al, litmus.GenConfig{
			Seed: seed, NCores: opts.Cores, OpsPerCore: opts.OpsPerCore,
		})
		for _, d := range designs {
			rep.Runs++
			v, err := fuzzRun(ctx, seed, d, g, g.Programs, opts)
			if err != nil {
				return rep, fmt.Errorf("fuzz: seed %d design %s: %w", seed, d, err)
			}
			if v != nil {
				rep.Seeds = s + 1
				rep.Violation = minimizeViolation(ctx, seed, d, g, opts, v)
				return rep, nil
			}
		}
		rep.Seeds = s + 1
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "fuzz: seed %d ok (%d cores, %d designs)\n",
				seed, g.NCores, len(designs))
		}
	}
	return rep, nil
}

// fuzzRun executes one (seed, design, programs) instance with checkers
// on. It returns the violation if the oracle fired (with the trailing
// trace window attached) and a non-nil error only for infrastructure
// failures.
func fuzzRun(ctx context.Context, seed uint64, d fence.Design, g litmus.GenResult,
	progs []*isa.Program, opts FuzzOptions) (*check.ViolationError, error) {

	store := mem.NewStore()
	words := int(g.Shared.Size / mem.WordSize)
	for i := 0; i < words; i++ {
		// Deterministic nonzero initial image so load checking starts
		// with distinguishable values.
		store.StoreWord(g.Shared.Base+mem.Addr(i)*mem.WordSize, uint32(i+1)*0x9e3779b1)
	}
	pv := mem.NewPrivacy()
	pv.MarkRegion(g.Shared)

	tr := trace.New(trace.Options{MaxEvents: opts.TraceEvents})
	var inj *faults.Injector
	if !opts.NoFaults {
		inj = faults.New(seed, faults.Default())
	}
	m, err := sim.New(sim.Config{
		NCores:  g.NCores,
		Design:  d,
		Privacy: pv,
		Checker: check.New(check.All()),
		Faults:  inj,
		Trace:   tr,
		Metrics: opts.Metrics,
	}, progs, store)
	if err != nil {
		return nil, err
	}
	_, err = m.RunCtx(ctx)
	var v *check.ViolationError
	if errors.As(err, &v) {
		v.Repro = &check.Repro{
			Seed:   seed,
			Design: d.String(),
			NCores: g.NCores,
			Events: tr.Events(),
		}
		for _, p := range progs {
			v.Repro.Programs = append(v.Repro.Programs, p.String())
		}
		return v, nil
	}
	return nil, err
}

// minimizeViolation shrinks a violating instance by replacing
// instructions with nops (branch targets stay valid) while the oracle
// still fires, then reruns the minimized instance to produce the final
// reproducer. Minimization is best-effort: any rerun that stops
// violating — or fails for an unrelated reason — just rejects that
// candidate nop.
func minimizeViolation(ctx context.Context, seed uint64, d fence.Design,
	g litmus.GenResult, opts FuzzOptions, v *check.ViolationError) *check.ViolationError {

	progs := minimizeProgs(ctx, g.Programs, func(ctx context.Context, cand []*isa.Program) bool {
		mv, err := fuzzRun(ctx, seed, d, g, cand, opts)
		return err == nil && mv != nil
	})
	mv, err := fuzzRun(ctx, seed, d, g, progs, opts)
	if err != nil || mv == nil {
		// The pristine instance is the authoritative reproducer if the
		// final rerun did not reproduce (cannot happen for deterministic
		// runs, but stay safe under cancellation).
		return v
	}
	return mv
}
