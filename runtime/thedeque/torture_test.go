package thedeque

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	asymruntime "asymfence/runtime"
)

// TestTortureExactlyOnceAcrossDegradation runs owner/stealer traffic
// while a seeded syscall fault injector EINTRs membarrier calls and
// then makes them fail persistently mid-run, so the deque's fences
// live-degrade from the membarrier path to the symmetric fallback in
// the middle of the handshake traffic. The consumption multiset must
// stay exact across the transition, and -race must stay silent — this
// is the adversarial case for the paper's WS+ assignment on silicon.
//
// Unlike stressExactlyOnce, the owner yields after every push batch so
// the stealer interleaves even on a single-CPU machine; the torture is
// pointless if the thief (the HeavyFence side) never runs.
func TestTortureExactlyOnceAcrossDegradation(t *testing.T) {
	if !asymruntime.Supported() {
		t.Skip("membarrier unsupported on this host; no degradation to torture")
	}
	setMode(t, asymruntime.ModeMembarrier)
	asymruntime.InjectFaults(asymruntime.NewFaultInjector(1,
		asymruntime.FaultConfig{EINTRProb: 5, FailAfter: 5}))
	t.Cleanup(func() { asymruntime.InjectFaults(nil) })

	const total = int64(20000)
	before := asymruntime.ReadStats()

	d := New(128, Asymmetric)
	var consumed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	stealers := 2
	results := make([][]int64, stealers+1)
	for s := 0; s < stealers; s++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			var got []int64
			fails := 0
			for consumed.Load() < total && !stop.Load() {
				if task, ok := d.Steal(); ok {
					got = append(got, task)
					consumed.Add(1)
					fails = 0
				} else if fails++; fails%16 == 0 {
					runtime.Gosched()
				}
			}
			results[idx+1] = got
		}(s)
	}

	var mine []int64
	var next int64
	watch := newProgressWatch()
	for n := consumed.Load(); n < total; n = consumed.Load() {
		if watch.stalled(n) {
			stop.Store(true)
			break
		}
		for i := 0; i < 32 && next < total; i++ {
			if !d.Push(next + 1) {
				break
			}
			next++
		}
		runtime.Gosched() // hand the CPU to the thieves every batch
		for {
			task, ok := d.Take()
			if !ok {
				break
			}
			mine = append(mine, task)
			consumed.Add(1)
		}
	}
	results[0] = mine
	wg.Wait()

	if stop.Load() {
		t.Errorf("no task consumed for %v across degradation (%d of %d consumed, head %d, tail %d)",
			stallDeadline, consumed.Load(), total, d.head.Load(), d.tail.Load())
	}
	checkExactlyOnce(t, results, total)

	after := asymruntime.ReadStats()
	if after.Degradations == before.Degradations {
		t.Fatal("torture run never degraded; the fault schedule exercised nothing")
	}
	if after.Active != asymruntime.ModeFallback {
		t.Fatalf("Active = %v after persistent membarrier failure, want fallback", after.Active)
	}
	if after.HeavyFallback == before.HeavyFallback {
		t.Error("no heavy fences ran on the fallback path after degradation")
	}
}
