package thedeque

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	asymruntime "asymfence/runtime"
)

// variants is the A/B pair every behavioral test covers.
var variants = []Variant{Symmetric, Asymmetric}

// testableModes returns the fence paths testable on this machine:
// fallback always, membarrier when the kernel supports it. Tests pin
// the mode globally, so none of them run in parallel.
func testableModes() []asymruntime.Mode {
	ms := []asymruntime.Mode{asymruntime.ModeFallback}
	if asymruntime.Supported() {
		ms = append(ms, asymruntime.ModeMembarrier)
	}
	return ms
}

func setMode(t *testing.T, m asymruntime.Mode) {
	t.Helper()
	if err := asymruntime.Use(m); err != nil {
		t.Skipf("mode %v unavailable: %v", m, err)
	}
	t.Cleanup(func() { _ = asymruntime.Use(asymruntime.ModeAuto) })
}

func TestOwnerLIFO(t *testing.T) {
	for _, v := range variants {
		d := New(16, v)
		for i := int64(1); i <= 5; i++ {
			if !d.Push(i) {
				t.Fatalf("%v: push %d failed", v, i)
			}
		}
		for want := int64(5); want >= 1; want-- {
			got, ok := d.Take()
			if !ok || got != want {
				t.Fatalf("%v: Take = %d,%v want %d", v, got, ok, want)
			}
		}
		if _, ok := d.Take(); ok {
			t.Fatalf("%v: Take on empty succeeded", v)
		}
	}
}

func TestStealFIFO(t *testing.T) {
	for _, v := range variants {
		d := New(16, v)
		for i := int64(1); i <= 5; i++ {
			d.Push(i)
		}
		for want := int64(1); want <= 5; want++ {
			got, ok := d.Steal()
			if !ok || got != want {
				t.Fatalf("%v: Steal = %d,%v want %d", v, got, ok, want)
			}
		}
		if _, ok := d.Steal(); ok {
			t.Fatalf("%v: Steal on empty succeeded", v)
		}
	}
}

func TestPushFull(t *testing.T) {
	d := New(8, Symmetric) // capacity rounds to 8; usable slots = 7
	var n int64
	for d.Push(n + 1) {
		n++
	}
	if n != 7 {
		t.Fatalf("pushed %d items into capacity-8 ring, want 7 (one slack slot)", n)
	}
	if d.Size() != 7 {
		t.Fatalf("Size = %d, want 7", d.Size())
	}
}

func TestMixedTakeSteal(t *testing.T) {
	d := New(32, Asymmetric)
	for i := int64(1); i <= 6; i++ {
		d.Push(i)
	}
	if v, ok := d.Steal(); !ok || v != 1 {
		t.Fatalf("Steal = %d,%v want 1", v, ok)
	}
	if v, ok := d.Take(); !ok || v != 6 {
		t.Fatalf("Take = %d,%v want 6", v, ok)
	}
	if got := d.Size(); got != 4 {
		t.Fatalf("Size = %d, want 4", got)
	}
}

// TestStressExactlyOnce is the port's core safety test: one owner
// interleaving Push/Take with N concurrent stealers, every fence
// variant, every available fence mode, under -race when enabled. Every
// task value must be consumed exactly once — no lost items, no
// duplicates.
func TestStressExactlyOnce(t *testing.T) {
	const total = 20000
	stealers := 4
	if runtime.NumCPU() < 4 {
		stealers = 1
	}
	for _, m := range testableModes() {
		for _, v := range variants {
			t.Run(m.String()+"/"+v.String(), func(t *testing.T) {
				setMode(t, m)
				stressExactlyOnce(t, v, total, stealers)
			})
		}
	}
}

func stressExactlyOnce(t *testing.T, v Variant, total int64, stealers int) {
	d := New(128, v)
	var consumed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
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
				} else if fails++; fails%64 == 0 {
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
		for i := 0; i < 64 && next < total; i++ {
			if !d.Push(next + 1) {
				break
			}
			next++
		}
		took := false
		for {
			task, ok := d.Take()
			if !ok {
				break
			}
			mine = append(mine, task)
			consumed.Add(1)
			took = true
		}
		if !took && next == total {
			// Everything pushed and the owner sees empty: stealers are
			// finishing the tail. Yield rather than spin.
			runtime.Gosched()
		}
	}
	results[0] = mine
	wg.Wait()

	if stop.Load() {
		t.Errorf("no task consumed for %v (%d of %d consumed, head %d, tail %d)",
			stallDeadline, consumed.Load(), total, d.head.Load(), d.tail.Load())
	}
	checkExactlyOnce(t, results, total)
	if v == Asymmetric && asymruntime.Active() == asymruntime.ModeMembarrier {
		if asymruntime.ReadStats().HeavyMembarrier == 0 {
			t.Fatalf("asymmetric stress run issued no membarrier heavy fences")
		}
	}
}

// stallDeadline bounds how long an exactly-once loop may go without
// consuming a task before the test stops it and names the missing tasks.
// A lost task otherwise leaves the loops spinning until the go test
// timeout, with no diagnosis.
const stallDeadline = 10 * time.Second

// progressWatch detects a consumption loop that stopped making progress.
type progressWatch struct {
	last int64
	at   time.Time
}

func newProgressWatch() *progressWatch { return &progressWatch{last: -1, at: time.Now()} }

// stalled reports whether the consumed count n has not moved for
// stallDeadline.
func (w *progressWatch) stalled(n int64) bool {
	if n != w.last {
		w.last, w.at = n, time.Now()
		return false
	}
	return time.Since(w.at) > stallDeadline
}

// checkExactlyOnce fails the test unless the tasks consumed across all
// results are exactly 1..total, each once, naming the missing and
// duplicated task values.
func checkExactlyOnce(t *testing.T, results [][]int64, total int64) {
	t.Helper()
	seen := make([]int, total+1)
	var n int
	var outside []int64
	for _, r := range results {
		n += len(r)
		for _, v := range r {
			if v < 1 || v > total {
				outside = append(outside, v)
				continue
			}
			seen[v]++
		}
	}
	var missing, dup []int64
	for v := int64(1); v <= total; v++ {
		switch {
		case seen[v] == 0:
			missing = append(missing, v)
		case seen[v] > 1:
			dup = append(dup, v)
		}
	}
	if len(missing)+len(dup)+len(outside) > 0 {
		t.Fatalf("consumed %d tasks, want %d exactly once: missing %s; duplicated %s; out of range %s",
			n, total, listHead(missing), listHead(dup), listHead(outside))
	}
}

// listHead renders up to the first 20 values of vs.
func listHead(vs []int64) string {
	const max = 20
	if len(vs) <= max {
		return fmt.Sprint(vs)
	}
	return fmt.Sprintf("%v ... (%d in all)", vs[:max], len(vs))
}

func TestBenchSmoke(t *testing.T) {
	for _, v := range variants {
		r := Bench(v, BenchOptions{Stealers: 1, Duration: 10 * time.Millisecond, StealPeriod: 50 * time.Microsecond})
		if r.OwnerOps == 0 {
			t.Fatalf("%v: bench completed no owner ops", v)
		}
		if r.Elapsed <= 0 {
			t.Fatalf("%v: bench reported non-positive elapsed", v)
		}
	}
}
