package sim_test

import (
	"testing"

	"asymfence/internal/fence"
	"asymfence/internal/mem"
	"asymfence/internal/metrics"
	"asymfence/internal/sim"
	"asymfence/internal/workloads/litmus"
)

// kernelMachine builds a long-running contended machine (Bakery lock
// handoffs keep all cores, directories and the mesh active) for
// measuring the cycle kernel under one fence design, exporting into reg
// (nil: metrics off).
func kernelMachine(b *testing.B, d fence.Design, ncores int, reg *metrics.Registry) *sim.Machine {
	b.Helper()
	al := mem.NewAllocator(dataBase)
	weak := make([]bool, ncores)
	for i := range weak {
		weak[i] = true
	}
	progs, _ := litmus.Bakery(al, ncores, 1<<20, weak, true)
	m, err := sim.New(sim.Config{NCores: ncores, Design: d, Metrics: reg}, progs, mem.NewStore())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkCycleKernel measures Machine.Step under each fence design on
// a busy 4-core machine, with metrics collection off and on (a
// sim.Config.Metrics registry per run): ns/op is nanoseconds per
// simulated cycle, so cycles/sec = 1e9 / (ns/op). This is the
// per-subsystem view of the end-to-end perfbench numbers (see
// PERFORMANCE.md); the metrics=off/metrics=on pair keeps the
// "metrics within noise" claim of OBSERVABILITY.md measurable, and
// steady state should be near allocation-free either way.
func BenchmarkCycleKernel(b *testing.B) {
	for _, d := range fence.AllDesigns {
		for _, on := range []bool{false, true} {
			name, reg := "metrics=off", (*metrics.Registry)(nil)
			if on {
				name, reg = "metrics=on", metrics.NewRegistry()
			}
			b.Run(d.String()+"/"+name, func(b *testing.B) {
				m := kernelMachine(b, d, 4, reg)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Step()
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
			})
		}
	}
}

// BenchmarkRunQuiesced measures full Run throughput on a workload with
// long quiet phases, comparing the pure cycle-by-cycle loop against the
// quiescence-aware loop that fast-forwards across them. The workload is
// a sparse handoff chain: each core mostly sleeps waiting for a flag or
// a Work burst, which is where idle skipping pays.
func BenchmarkRunQuiesced(b *testing.B) {
	for _, pure := range []bool{true, false} {
		name := "fastforward"
		if pure {
			name = "purestepping"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := sim.New(
					sim.Config{NCores: 4, Design: fence.WPlus, PureStepping: pure},
					quiesceProgs(), mem.NewStore())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
