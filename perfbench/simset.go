package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"asymfence/internal/fence"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/stats"
	"asymfence/internal/workloads/cilk"
	"asymfence/internal/workloads/stm"
)

const (
	// simCores is the simulated machine size of every run (the paper's
	// default 8-core mesh, Table 2).
	simCores = 8
	// figureSeed is the workload seed every table in EXPERIMENTS.md uses.
	figureSeed = 20150314
	// heldOutSeed is a second fixed seed that no tuning of the model or
	// of this benchmark has used; the traced run reports its speedups
	// and paper error beside the main seed's.
	heldOutSeed = 1729
	// cilkMaxCycles bounds a CilkApps run, as in the figure runs.
	cilkMaxCycles = 200_000_000
)

// designs are the four fence designs of the paper's figures, S+ first.
var designs = []fence.Design{fence.SPlus, fence.WSPlus, fence.WPlus, fence.Wee}

// simSet is a fixed set of simulations: every app of one workload group
// under every design, at one input size.
type simSet struct {
	name  string
	group string // "ustm" or "cilk"
	// horizon is a ustm run's fixed length in simulated cycles.
	horizon int64
	// scale is the share of each CilkApps app's task count that is run.
	scale float64
	// paper holds the WS+ and W+ speedups over S+ that the paper reports
	// for the group (Fig. 9 for ustm, Fig. 8 for CilkApps).
	paper [2]float64
}

var (
	// ustmSet is the Fig. 9/10 set at the figures' horizon.
	ustmSet = simSet{name: "ustm", group: "ustm", horizon: 60_000, paper: [2]float64{1.38, 1.58}}
	// cilkSet is the Fig. 8 set at half the figures' task count.
	cilkSet = simSet{name: "cilk", group: "cilk", scale: 0.5, paper: [2]float64{1.09, 1.09}}
)

func (s simSet) apps() int {
	if s.group == "ustm" {
		return len(stm.USTM)
	}
	return len(cilk.Apps)
}

// size is the number of simulations in the set.
func (s simSet) size() int { return s.apps() * len(designs) }

// spec returns simulation i's app and design (app-major order).
func (s simSet) spec(i int) (string, fence.Design) {
	a, d := i/len(designs), designs[i%len(designs)]
	if s.group == "ustm" {
		return stm.USTM[a].Name, d
	}
	return cilk.Apps[a].Name, d
}

// instance is one simulation, built and ready to run.
type instance struct {
	m     *sim.Machine
	run   func() (*sim.Result, error)
	check func(*sim.Result) error
}

// setUp builds simulation i for seed: the workload's programs and data,
// then the machine (sim.New, which preloads the L2 warm regions; the L1s
// start empty). It returns the two host times separately.
func (s simSet) setUp(i int, seed uint64) (inst *instance, build, newTime time.Duration, err error) {
	a, d := i/len(designs), designs[i%len(designs)]
	al := mem.NewAllocator(0x1000)
	store := mem.NewStore()
	privacy := mem.NewPrivacy()
	inst = &instance{}
	if s.group == "ustm" {
		p := stm.USTM[a]
		p.Iterations = 0 // run until the horizon
		t0 := time.Now()
		wl := stm.Build(p, simCores, stm.AssignmentFor(d), seed, al, store, privacy)
		t1 := time.Now()
		inst.m, err = sim.New(sim.Config{
			NCores: simCores, Design: d, Privacy: privacy,
			WarmRegions: wl.WarmRegions, MaxCycles: s.horizon + 1,
		}, wl.Progs, store)
		build, newTime = t1.Sub(t0), time.Since(t1)
		inst.run = func() (*sim.Result, error) {
			r := inst.m.RunFor(s.horizon)
			if r == nil {
				return nil, errors.New("RunFor returned no result")
			}
			return r, nil
		}
		inst.check = func(r *sim.Result) error { return checkUSTM(inst.m, wl, r) }
		return inst, build, newTime, err
	}
	p := cilk.Apps[a]
	p.TasksPerWorker = max(4, int(float64(p.TasksPerWorker)*s.scale))
	t0 := time.Now()
	wl := cilk.Build(p, simCores, cilk.AssignmentFor(d), seed, al, store, privacy)
	t1 := time.Now()
	inst.m, err = sim.New(sim.Config{
		NCores: simCores, Design: d, Privacy: privacy,
		WarmRegions: wl.WarmRegions, MaxCycles: cilkMaxCycles,
	}, wl.Progs, store)
	build, newTime = t1.Sub(t0), time.Since(t1)
	inst.run = func() (*sim.Result, error) { return inst.m.Run() }
	inst.check = func(r *sim.Result) error { return checkCilk(wl, r) }
	return inst, build, newTime, err
}

// checkUSTM verifies a ustm run's output: transactions committed, and
// the data words sum to the committed writer transactions times their
// writes. At the horizon the sum may fall short by the stores still in
// the cores' write buffers (counted transactions whose increments have
// not reached memory; under weak fences a buffer holds several
// transactions' stores) and exceed it by one transaction's writes per
// core (increments that reached memory before their transaction was
// counted). A lost update beyond that fails.
func checkUSTM(m *sim.Machine, wl *stm.Workload, r *sim.Result) error {
	agg := r.Agg()
	if agg.Events[stats.EvCommit] == 0 {
		return errors.New("no transaction committed")
	}
	var sum, buffered int64
	for i := 0; i < wl.Profile.Locations; i++ {
		sum += int64(m.Store().Load(wl.Layout.DataAddr(i)))
	}
	for c := range r.Cores {
		buffered += int64(m.Core(c).WBDepth())
	}
	w := int64(wl.Profile.WritesPerTxn)
	want := int64(agg.Events[stats.EvWriteCommit]) * w
	inFlight := int64(len(r.Cores)) * w
	if diff := sum - want; diff < -buffered || diff > inFlight {
		return fmt.Errorf("data-word sum %d, want %d (-%d buffered, +%d in flight)", sum, want, buffered, inFlight)
	}
	return nil
}

// checkCilk verifies a CilkApps run's output: it finished, and every
// seeded task was executed exactly as many times as there are tasks.
func checkCilk(wl *cilk.Workload, r *sim.Result) error {
	if !r.Finished {
		return errors.New("run did not finish")
	}
	if got := r.Agg().Events[stats.EvTask]; got != uint64(wl.TotalTasks) {
		return fmt.Errorf("executed %d tasks, want %d", got, wl.TotalTasks)
	}
	return nil
}

// counts are one simulation's deterministic per-layer counts.
type counts struct {
	Cycles         int64  `json:"cycles"`
	Skipped        int64  `json:"skipped"`
	Retired        uint64 `json:"retired"`
	Busy           uint64 `json:"busy"`
	FenceStall     uint64 `json:"fence_stall"`
	OtherStall     uint64 `json:"other_stall"`
	Squashes       uint64 `json:"squashes"`
	Mispredicts    uint64 `json:"mispredicts"`
	SFences        uint64 `json:"sfences"`
	WFences        uint64 `json:"wfences"`
	Demoted        uint64 `json:"demoted"`
	BSLinesSum     uint64 `json:"bs_lines_sum"`
	BSLinesSamples uint64 `json:"bs_lines_samples"`
	BouncedWrites  uint64 `json:"bounced_writes"`
	Recoveries     uint64 `json:"recoveries"`
	OrderOps       uint64 `json:"order_ops"`
	GetS           uint64 `json:"gets"`
	GetM           uint64 `json:"getm"`
	L2Hits         uint64 `json:"l2_hits"`
	MemFetches     uint64 `json:"mem_fetches"`
	DirBounced     uint64 `json:"dir_bounced"`
	Packets        uint64 `json:"packets"`
	Bytes          uint64 `json:"bytes"`
	Commits        uint64 `json:"commits"`
	WriteCommits   uint64 `json:"write_commits"`
	Aborts         uint64 `json:"aborts"`
	Tasks          uint64 `json:"tasks"`
	Steals         uint64 `json:"steals"`
}

func countsOf(r *sim.Result, skipped int64) counts {
	a := r.Agg()
	return counts{
		Cycles: r.Cycles, Skipped: skipped,
		Retired: a.RetiredInstrs, Busy: a.BusyCycles,
		FenceStall: a.FenceStallCycles, OtherStall: a.OtherStallCycles,
		Squashes: a.Squashes, Mispredicts: a.Mispredicts,
		SFences: a.SFences, WFences: a.WFences, Demoted: a.DemotedWFences,
		BSLinesSum: a.BSLinesSum, BSLinesSamples: a.BSLinesSamples,
		BouncedWrites: a.BouncedWrites, Recoveries: a.Recoveries,
		OrderOps: a.OrderOps + a.CondOrderOps,
		GetS:     r.Dir.GetSReqs, GetM: r.Dir.GetMReqs,
		L2Hits: r.Dir.L2Hits, MemFetches: r.Dir.MemFetches,
		DirBounced: r.Dir.BouncedWrites,
		Packets:    r.NoC.Packets, Bytes: r.NoC.Bytes,
		Commits:      a.Events[stats.EvCommit],
		WriteCommits: a.Events[stats.EvWriteCommit],
		Aborts:       a.Events[stats.EvAbort],
		Tasks:        a.Events[stats.EvTask], Steals: a.Events[stats.EvSteal],
	}
}

func (c *counts) add(o counts) {
	c.Cycles += o.Cycles
	c.Skipped += o.Skipped
	c.Retired += o.Retired
	c.Busy += o.Busy
	c.FenceStall += o.FenceStall
	c.OtherStall += o.OtherStall
	c.Squashes += o.Squashes
	c.Mispredicts += o.Mispredicts
	c.SFences += o.SFences
	c.WFences += o.WFences
	c.Demoted += o.Demoted
	c.BSLinesSum += o.BSLinesSum
	c.BSLinesSamples += o.BSLinesSamples
	c.BouncedWrites += o.BouncedWrites
	c.Recoveries += o.Recoveries
	c.OrderOps += o.OrderOps
	c.GetS += o.GetS
	c.GetM += o.GetM
	c.L2Hits += o.L2Hits
	c.MemFetches += o.MemFetches
	c.DirBounced += o.DirBounced
	c.Packets += o.Packets
	c.Bytes += o.Bytes
	c.Commits += o.Commits
	c.WriteCommits += o.WriteCommits
	c.Aborts += o.Aborts
	c.Tasks += o.Tasks
	c.Steals += o.Steals
}

// simRecord is one simulation's determinism record: its result digest
// and per-layer counts, or the output check it failed.
type simRecord struct {
	App    string `json:"app"`
	Design string `json:"design"`
	Digest string `json:"digest,omitempty"`
	Error  string `json:"error,omitempty"`
	counts
}

// passResult is one pass over every simulation of a set.
type passResult struct {
	records []simRecord
	runNs   []float64 // host time of each Run, in set order
	buildNs []float64 // host time of each workload Build
	newNs   []float64 // host time of each sim.New
	runTime time.Duration
	// cal holds the calibration time taken before each Run.
	cal    []float64
	failed int
	// peakRSS is the process's peak RSS in MB during the pass.
	peakRSS float64
	// gc is the Go runtime's allocation and collection work during the
	// timed Run calls.
	gc gcStats
}

// gcStats is Go runtime memory work between two MemStats readings.
type gcStats struct {
	mallocs, bytes, count uint64
	pause                 time.Duration
}

func (g *gcStats) add(before, after *runtime.MemStats) {
	g.mallocs += after.Mallocs - before.Mallocs
	g.bytes += after.TotalAlloc - before.TotalAlloc
	g.count += uint64(after.NumGC - before.NumGC)
	g.pause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
}

// pass runs every simulation of the set once, one at a time, checking
// each output. With a tracer it records a Build, New and Run span per
// simulation, sharing the simulation's id, under one span for the pass.
func (s simSet) pass(seed uint64, tr *tracer) passResult {
	n := s.size()
	pr := passResult{records: make([]simRecord, n),
		runNs: make([]float64, n), buildNs: make([]float64, n), newNs: make([]float64, n)}
	passID := tr.newID()
	passStart := time.Now()
	for i := 0; i < n; i++ {
		app, d := s.spec(i)
		rec := &pr.records[i]
		rec.App, rec.Design = app, d.String()
		id := tr.newID()
		t0 := time.Now()
		inst, build, newTime, err := s.setUp(i, seed)
		tr.add(id, passID, "workloads.Build", t0, t0.Add(build))
		tr.add(id, passID, "sim.New", t0.Add(build), t0.Add(build+newTime))
		pr.buildNs[i], pr.newNs[i] = float64(build), float64(newTime)
		if err != nil {
			rec.Error = err.Error()
			pr.failed++
			continue
		}
		pr.cal = append(pr.cal, calibrate())
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t1 := time.Now()
		res, err := inst.run()
		t2 := time.Now()
		runtime.ReadMemStats(&m1)
		pr.gc.add(&m0, &m1)
		tr.add(id, passID, "sim.Run", t1, t2)
		pr.runNs[i] = float64(t2.Sub(t1))
		pr.runTime += t2.Sub(t1)
		if err == nil {
			err = inst.check(res)
		}
		if res != nil {
			rec.Digest = res.Digest()
			rec.counts = countsOf(res, inst.m.SkippedCycles())
		}
		if err != nil {
			rec.Error = err.Error()
			pr.failed++
		}
		// Collect between simulations, outside the timed region, so each
		// one starts from the same small heap.
		runtime.GC()
	}
	tr.add(passID, 0, "pass."+s.name, passStart, time.Now())
	return pr
}

// setUpOnly builds every simulation of the set without running it and
// returns the total host time of the builds and sim.New calls.
func (s simSet) setUpOnly(seed uint64) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < s.size(); i++ {
		_, build, newTime, err := s.setUp(i, seed)
		if err != nil {
			return 0, err
		}
		total += build + newTime
		runtime.GC()
	}
	return total, nil
}

// speedups returns each design's geometric-mean speedup over S+ across
// the set's apps: committed-transaction throughput in the fixed horizon
// for ustm (Fig. 9), inverse execution time for CilkApps (Fig. 8).
func (s simSet) speedups(recs []simRecord) map[fence.Design]float64 {
	out := map[fence.Design]float64{}
	for di, d := range designs {
		var rs []float64
		for a := 0; a < s.apps(); a++ {
			base, r := recs[a*len(designs)].counts, recs[a*len(designs)+di].counts
			if s.group == "ustm" {
				rs = append(rs, ratio(float64(r.Commits), float64(base.Commits)))
			} else {
				rs = append(rs, ratio(float64(base.Cycles), float64(r.Cycles)))
			}
		}
		out[d] = geomean(rs)
	}
	return out
}

// paperErr is the mean relative distance of the WS+ and W+ speedups
// from the paper's values.
func (s simSet) paperErr(sp map[fence.Design]float64) float64 {
	return (math.Abs(sp[fence.WSPlus]/s.paper[0]-1) + math.Abs(sp[fence.WPlus]/s.paper[1]-1)) / 2
}

// splusFenceStall is the mean share of counted core cycles S+ runs
// spend stalled on fences (Figs. 8 and 10).
func (s simSet) splusFenceStall(recs []simRecord) float64 {
	sum := 0.0
	for a := 0; a < s.apps(); a++ {
		c := recs[a*len(designs)].counts
		sum += ratio(float64(c.FenceStall), float64(c.Busy+c.FenceStall+c.OtherStall))
	}
	return sum / float64(s.apps())
}

// total sums the counts of every record.
func total(recs []simRecord) counts {
	var c counts
	for _, r := range recs {
		c.add(r.counts)
	}
	return c
}
