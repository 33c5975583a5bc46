package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	asymruntime "asymfence/runtime"
	"asymfence/runtime/thedeque"
	"asymfence/runtime/tlrw"
)

// The silicon part runs the goroutine ports of the paper's two
// flagship workloads closed-loop over the real fence pair. The hot side
// (deque owner, TLRW reader) is the calling goroutine and spins; the
// rare side (one thief, one writer) is a second goroutine that calls on
// a fixed pause, so steals and commits stay rare (paper §4). At most two
// goroutines run at once, and only the hot one never sleeps.
const (
	sliceLen    = 100 * time.Millisecond
	dequeBatch  = 64
	stealPause  = 100 * time.Microsecond
	writePause  = 200 * time.Microsecond
	tlrwWords   = 8
	lightBatch  = 100_000
	fullBatch   = 20_000
	heavyProbes = 64
	// traceEvery is how many hot-path calls pass between two sampled
	// spans in the traced run.
	traceEvery = 4096
	// maxLatencySamples caps the latency samples a tail is taken from,
	// so the tail sits at the same percentile whatever the run length.
	maxLatencySamples = 500
)

// fenceMode is the fence mode the run asks for: ASYMFENCE_MODE when it
// names one, automatic selection otherwise.
func fenceMode() asymruntime.Mode {
	switch os.Getenv("ASYMFENCE_MODE") {
	case "membarrier":
		return asymruntime.ModeMembarrier
	case "fallback":
		return asymruntime.ModeFallback
	}
	return asymruntime.ModeAuto
}

// siliconSetUp is the silicon part's set-up: fence-mode resolution
// (which registers for membarrier on first use) and construction of the
// deques and locks of one round.
func siliconSetUp() (time.Duration, error) {
	t0 := time.Now()
	if err := asymruntime.Use(fenceMode()); err != nil {
		return 0, fmt.Errorf("fence mode: %w", err)
	}
	_ = asymruntime.Active()
	for _, v := range []thedeque.Variant{thedeque.Asymmetric, thedeque.Symmetric} {
		_ = thedeque.New(2*dequeBatch, v)
	}
	for _, v := range []tlrw.Variant{tlrw.Asymmetric, tlrw.Symmetric} {
		_ = tlrw.New(v)
	}
	return time.Since(t0), nil
}

// siliconResult aggregates the silicon phase.
type siliconResult struct {
	dequeAsym, dequeSym []float64 // owner Mops/s per slice
	readsAsym, readsSym []float64 // read Mtxns/s per slice
	speed               []float64 // host speed per round
	writeNs             []float64 // asymmetric writer Lock→Unlock latencies
	stealNs             []float64 // asymmetric Steal latencies
	steals, stealTries  int64     // asymmetric successful / attempted steals
	writes              int64     // asymmetric write transactions
	lightNs, fullNs     []float64 // batch-timed per-call fence costs
	heavyNs             []float64 // direct HeavyFence latencies
	stats0, stats1      asymruntime.Stats
	mode                asymruntime.Mode
	attempted, failed   int
	failures            []string
}

// silicon runs rounds of the four slices (deque and TLRW, asymmetric and
// symmetric) and a fence probe until budget is spent, at least one round.
func silicon(budget time.Duration, seed uint64, tr *tracer) *siliconResult {
	r := &siliconResult{mode: asymruntime.Active(), stats0: asymruntime.ReadStats()}
	rng := splitmix{seed}
	ids := make([]uint64, 4096)
	for i := range ids {
		ids[i] = rng.next() >> 1
	}
	// Start from a collected heap, so that the simulator's garbage does
	// not put collector work into the measured slices.
	runtime.GC()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		var cals []float64
		for _, v := range []thedeque.Variant{thedeque.Asymmetric, thedeque.Symmetric} {
			cals = append(cals, calibrate())
			out := dequeSlice(v, ids, rng.next(), tr)
			r.note(out.err)
			if v == thedeque.Asymmetric {
				r.dequeAsym = append(r.dequeAsym, out.mops)
				r.stealNs = append(r.stealNs, out.stealNs...)
				r.steals += out.steals
				r.stealTries += out.tries
			} else {
				r.dequeSym = append(r.dequeSym, out.mops)
			}
		}
		for _, v := range []tlrw.Variant{tlrw.Asymmetric, tlrw.Symmetric} {
			cals = append(cals, calibrate())
			out := tlrwSlice(v, rng.next(), tr)
			r.note(out.err)
			if v == tlrw.Asymmetric {
				r.readsAsym = append(r.readsAsym, out.mreads)
				r.writeNs = append(r.writeNs, out.writeNs...)
				r.writes += out.writes
			} else {
				r.readsSym = append(r.readsSym, out.mreads)
			}
		}
		r.speed = append(r.speed, hostSpeed(cals))
		r.probe(tr)
	}
	r.stats1 = asymruntime.ReadStats()
	return r
}

// note counts one checked slice and records its failure, if any. A
// slice also fails when the fence mode changed under it.
func (r *siliconResult) note(err error) {
	r.attempted++
	if err == nil && asymruntime.Active() != r.mode {
		err = fmt.Errorf("fence mode changed mid-run: %v → %v", r.mode, asymruntime.Active())
	}
	if err == nil {
		if d := asymruntime.ReadStats().Degradations - r.stats0.Degradations; d > 0 {
			err = fmt.Errorf("fence runtime degraded %d time(s) mid-run", d)
		}
	}
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
}

// probe times the fence layer directly: LightFence and the fallback full
// fence batch-timed, HeavyFence call by call.
func (r *siliconResult) probe(tr *tracer) {
	id := tr.newID()
	t0 := time.Now()
	for i := 0; i < lightBatch; i++ {
		asymruntime.LightFence()
	}
	t1 := time.Now()
	tr.add(id, 0, "runtime.LightFence.batch", t0, t1)
	r.lightNs = append(r.lightNs, float64(t1.Sub(t0))/lightBatch)

	var cell asymruntime.Cell
	t0 = time.Now()
	for i := 0; i < fullBatch; i++ {
		cell.FullFence()
	}
	r.fullNs = append(r.fullNs, float64(time.Since(t0))/fullBatch)

	for i := 0; i < heavyProbes; i++ {
		t0 := time.Now()
		asymruntime.HeavyFence()
		t1 := time.Now()
		tr.add(id, 0, "runtime.HeavyFence", t0, t1)
		r.heavyNs = append(r.heavyNs, float64(t1.Sub(t0)))
	}
	r.note(nil)
}

// checksum accumulates a multiset of task ids: equal checksums of pushed
// and consumed ids mean every task was consumed exactly once (up to a
// 2^-64 collision).
type checksum struct{ n, sum, mix uint64 }

func (c *checksum) add(id uint64) {
	c.n++
	c.sum += id
	c.mix += mix64(id)
}

func (c *checksum) merge(o checksum) {
	c.n += o.n
	c.sum += o.sum
	c.mix += o.mix
}

type dequeOutcome struct {
	mops          float64
	steals, tries int64
	stealNs       []float64
	err           error
}

// dequeSlice runs the THE deque for one slice: the owner pushes a batch
// of seeded task ids and takes until empty, while one thief steals on a
// jittered pause. Afterwards the owner drains the deque and the pushed
// ids are checked against the taken and stolen ones.
func dequeSlice(v thedeque.Variant, ids []uint64, seed uint64, tr *tracer) dequeOutcome {
	dq := thedeque.New(2*dequeBatch, v)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var stolen checksum
	out := dequeOutcome{stealNs: make([]float64, 0, sliceLen/stealPause)}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := splitmix{seed}
		for !stop.Load() {
			id := tr.newID()
			t0 := time.Now()
			task, ok := dq.Steal()
			t1 := time.Now()
			tr.add(id, 0, "thedeque.Steal", t0, t1)
			out.tries++
			if ok {
				stolen.add(uint64(task))
				out.steals++
			}
			out.stealNs = append(out.stealNs, float64(t1.Sub(t0)))
			time.Sleep(stealPause + time.Duration(rng.next()%uint64(stealPause/2)))
		}
	}()

	var pushed, taken checksum
	var seq uint64
	var ops int64
	start := time.Now()
	deadline := start.Add(sliceLen)
	for {
		for i := 0; i < dequeBatch; i++ {
			id := ids[seq%uint64(len(ids))] + seq
			if !dq.Push(int64(id)) {
				break
			}
			pushed.add(id)
			seq++
		}
		for {
			var t0 time.Time
			traced := tr != nil && ops%traceEvery == 0
			if traced {
				t0 = time.Now()
			}
			task, ok := dq.Take()
			if traced {
				tr.add(tr.newID(), 0, "thedeque.Take", t0, time.Now())
			}
			if !ok {
				break
			}
			taken.add(uint64(task))
			ops++
		}
		if time.Now().After(deadline) {
			break
		}
	}
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	for {
		task, ok := dq.Take()
		if !ok {
			break
		}
		taken.add(uint64(task))
	}
	taken.merge(stolen)
	if taken != pushed {
		out.err = fmt.Errorf("deque %v: %d tasks pushed, %d taken or stolen, checksums differ", v, pushed.n, taken.n)
	}
	out.mops = float64(ops) / elapsed.Seconds() / 1e6
	return out
}

type tlrwOutcome struct {
	mreads  float64
	writes  int64
	writeNs []float64
	err     error
}

// tlrwSlice runs the TLRW lock for one slice: the reader runs read
// transactions (read-lock, sum the shared words, unlock) back to back,
// while one writer moves a seeded amount between two seeded words under
// the write lock on a jittered pause. Every read must see the words sum
// to zero; a torn read fails the slice.
func tlrwSlice(v tlrw.Variant, seed uint64, tr *tracer) tlrwOutcome {
	lk := tlrw.New(v)
	data := make([]int64, tlrwWords)
	var stop atomic.Bool
	var wg sync.WaitGroup
	out := tlrwOutcome{writeNs: make([]float64, 0, sliceLen/writePause)}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := splitmix{seed}
		for !stop.Load() {
			i := rng.next() % tlrwWords
			j := (i + 1 + rng.next()%(tlrwWords-1)) % tlrwWords
			amt := int64(rng.next()%1000) + 1
			id := tr.newID()
			t0 := time.Now()
			lk.Lock()
			t1 := time.Now()
			data[i] += amt
			data[j] -= amt
			lk.Unlock()
			t2 := time.Now()
			tr.add(id, 0, "tlrw.Lock", t0, t1)
			tr.add(id, 0, "tlrw.Unlock", t1, t2)
			out.writeNs = append(out.writeNs, float64(t2.Sub(t0)))
			out.writes++
			time.Sleep(writePause + time.Duration(rng.next()%uint64(writePause/2)))
		}
	}()

	var reads, torn int64
	start := time.Now()
	deadline := start.Add(sliceLen)
	for {
		for k := 0; k < 64; k++ {
			var t0 time.Time
			traced := tr != nil && reads%traceEvery == 0
			if traced {
				t0 = time.Now()
			}
			lk.RLock(0)
			if traced {
				tr.add(tr.newID(), 0, "tlrw.RLock", t0, time.Now())
			}
			var sum int64
			for _, w := range data {
				sum += w
			}
			lk.RUnlock(0)
			if sum != 0 {
				torn++
			}
			reads++
		}
		if time.Now().After(deadline) {
			break
		}
	}
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	var sum int64
	for _, w := range data {
		sum += w
	}
	if torn > 0 || sum != 0 {
		out.err = fmt.Errorf("tlrw %v: %d torn reads, final sum %d", v, torn, sum)
	}
	out.mreads = float64(reads) / elapsed.Seconds() / 1e6
	return out
}
