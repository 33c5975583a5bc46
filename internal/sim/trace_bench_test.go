package sim_test

import (
	"runtime"
	"testing"

	"asymfence/internal/fence"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/trace"
	"asymfence/internal/workloads/litmus"
)

// benchMachine builds the reference Bakery machine used to measure the
// tracing overhead of the cycle loop.
func benchMachine(b *testing.B, tr *trace.Tracer, interval int64) *sim.Machine {
	b.Helper()
	al := mem.NewAllocator(dataBase)
	progs, _ := litmus.Bakery(al, 4, 1000, []bool{true, true, true, true}, true)
	m, err := sim.New(sim.Config{
		NCores: 4, Design: fence.WPlus,
		Trace: tr, SampleInterval: interval,
	}, progs, mem.NewStore())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkStepTracingDisabled is the baseline cycle rate with the nil
// tracer every component holds by default. Compare against
// BenchmarkStepTracingEnabled: the acceptance bar for the trace
// subsystem is that this benchmark stays within noise (< 2%) of the
// pre-trace simulator.
func BenchmarkStepTracingDisabled(b *testing.B) {
	m := benchMachine(b, nil, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkStepTracingEnabled measures the full-mask tracing cost
// (bounded ring so memory stays flat at large b.N).
func BenchmarkStepTracingEnabled(b *testing.B) {
	m := benchMachine(b, trace.New(trace.Options{MaxEvents: 1 << 16}), 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// TestQuiescedStepIsAllocationFree documents that the steady-state
// cycle loop — including every tracing call site on the nil fast path
// and the nil interval sampler — performs no allocations. (The busy
// loop's budget is TestBusyCycleAllocationBudget; the per-cycle tracing
// hooks themselves must never add any. The trace package's
// TestNilTracerIsDisabledAndFree covers the Emit path under load.)
func TestQuiescedStepIsAllocationFree(t *testing.T) {
	al := mem.NewAllocator(dataBase)
	progs, _ := litmus.Bakery(al, 4, 2, []bool{true, true, true, true}, true)
	m, err := sim.New(sim.Config{NCores: 4, Design: fence.WPlus}, progs, mem.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, m.Step)
	if allocs != 0 {
		t.Fatalf("quiesced Step allocated %v per cycle, want 0", allocs)
	}
}

// TestBusyCycleAllocationBudget bounds the heap bytes the busy cycle loop
// allocates per simulated cycle, under every fence design, on the
// contended Bakery machine of BenchmarkCycleKernel. The core model keeps
// its ROB, load/store queues and miss records in preallocated storage, so
// what remains is occasional slice growth (undo and stat logs, fence
// lists, Wee pending sets); an allocation per instruction or per cycle
// would cost kilobytes per cycle and trip the bound.
func TestBusyCycleAllocationBudget(t *testing.T) {
	const warm, cycles, budget = 10000, 40000, 512 // budget in bytes/cycle
	for _, d := range fence.AllDesigns {
		m := kernelMachine(t, d, 4, nil)
		for i := 0; i < warm; i++ {
			m.Step()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			m.Step()
		}
		runtime.ReadMemStats(&after)
		if m.Finished() {
			t.Fatalf("%v: the kernel machine finished inside the measured window", d)
		}
		perCycle := float64(after.TotalAlloc-before.TotalAlloc) / cycles
		t.Logf("%v: %.1f B/cycle", d, perCycle)
		if perCycle > budget {
			t.Errorf("%v: busy cycle loop allocated %.1f B/cycle, budget %d", d, perCycle, budget)
		}
	}
}
