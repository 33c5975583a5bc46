// Command perfbench is the repository benchmark. One run measures one
// workload for a given time from a given seed, checks every output, and
// prints each metric by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload ustm --seed 1 --seconds 30 --trace 0
//
// Workloads: ustm and cilk run the simulator over the Fig. 9/10 and
// Fig. 8 sets, one simulation at a time; silicon runs the goroutine
// Cilk-THE deque and TLRW lock over the real fence pair. Every run also
// spends a fifth of its time on the other part, so every run reports
// every metric. --trace 0 reports the end-to-end metrics; --trace 1 is
// the separate traced run that reports the per-layer ones. README.md in
// this directory defines each metric.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"asymfence/internal/fence"
	asymruntime "asymfence/runtime"
)

// workload is one benchmark workload: a simulation set and which part,
// simulator or silicon, gets the main share of the run.
type workload struct {
	name    string
	sims    simSet
	silicon bool
}

var workloads = []workload{
	{name: "ustm", sims: ustmSet},
	{name: "cilk", sims: cilkSet},
	{name: "silicon", sims: cilkSet, silicon: true},
}

const (
	// mainShare is the share of a run's time its main part gets.
	mainShare = 0.8
	// setUpReps is how many times a run sets up before it measures.
	setUpReps = 5
	// minPasses is the fewest passes over the simulation set a run makes.
	minPasses = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: ustm, cilk or silicon")
	seed := fl.Uint64("seed", figureSeed, "seed of every generated input")
	seconds := fl.Float64("seconds", 20, "time one run measures, in seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outDir := fl.String("out", ".bench_build", "directory for determinism records and spans")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload ustm|cilk|silicon, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	rep, err := measure(*w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report is one run's output.
type report struct {
	notes             []string
	defs              []metricDef
	values            map[string]float64
	attempted, failed int
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the notes, one line per metric, and the JSON result line.
func (r *report) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range r.defs {
		v := r.values[d.name]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = value{v, d.unit}
	}
	fmt.Fprintf(w, "%-36s %14.6g %s (%d of %d)\n", "fail_frac",
		ratio(float64(r.failed), float64(r.attempted)), "ratio", r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// simPhase is the simulator part of a run.
type simPhase struct {
	passes            []passResult // untraced passes
	traced            []passResult // traced passes (traced run only)
	heldOut           []simRecord  // one pass at heldOutSeed (traced run only)
	profile           map[string]int64
	attempted, failed int
	failures          []string
}

// simulate runs whole passes over the set until budget is spent, at
// least minPasses. In the traced run passes alternate untraced and
// traced, the traced ones under the CPU profiler, and a pass at the
// held-out seed follows. Every pass must reproduce the first pass's
// records exactly.
func simulate(s simSet, seed uint64, budget time.Duration, tr *tracer) (*simPhase, error) {
	ph := &simPhase{profile: map[string]int64{}}
	start := time.Now()
	for i := 0; ; i++ {
		resetPeakRSS()
		var pr passResult
		if tr != nil && i%2 == 1 {
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
			pr = s.pass(seed, tr)
			pprof.StopCPUProfile()
			if err := attribute(prof.Bytes(), ph.profile); err != nil {
				return nil, err
			}
			ph.traced = append(ph.traced, pr)
		} else {
			pr = s.pass(seed, nil)
			pr.peakRSS = peakRSSMB()
			ph.passes = append(ph.passes, pr)
		}
		ph.tally(pr, ph.passes[0].records)
		if i+1 >= minPasses && time.Since(start) >= budget {
			break
		}
	}
	if tr != nil {
		pr := s.pass(heldOutSeed, nil)
		ph.tally(pr, pr.records)
		ph.heldOut = pr.records
	}
	return ph, nil
}

// tally counts a pass's simulations and failures, including every
// simulation whose record differs from the reference repetition's.
func (ph *simPhase) tally(pr passResult, ref []simRecord) {
	for i, rec := range pr.records {
		ph.attempted++
		switch {
		case rec.Error != "":
			ph.failed++
			ph.failures = append(ph.failures, fmt.Sprintf("%s/%s: %s", rec.App, rec.Design, rec.Error))
		case rec != ref[i]:
			ph.failed++
			ph.failures = append(ph.failures, fmt.Sprintf("%s/%s: digest %.12s differs from the first repetition's %.12s",
				rec.App, rec.Design, rec.Digest, ref[i].Digest))
		}
	}
}

// throughputs returns each pass's simulated Minstr per host second.
func throughputs(passes []passResult) []float64 {
	var out []float64
	for _, p := range passes {
		out = append(out, float64(total(p.records).Retired)/p.runTime.Seconds()/1e6)
	}
	return out
}

// measure makes one run of workload w.
func measure(w workload, seed uint64, budget time.Duration, traced bool, outDir string) (*report, error) {
	rep := &report{values: map[string]float64{}}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	rev := sourceRevision(".")
	rep.note("perfbench workload=%s seed=%d seconds=%g trace=%v", w.name, seed, budget.Seconds(), traced)
	rep.note("host nproc=%d gomaxprocs=%d go=%s kernel=%s fence_mode=%v revision=%s",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease(), asymruntime.Active(), rev)

	// The first set-up pays one-time costs (heap growth, page faults);
	// it is discarded, and each measured one starts from a collected heap.
	var setups, setupCals []float64
	for i := 0; i <= setUpReps; i++ {
		runtime.GC()
		cal := calibrate()
		simT, err := w.sims.setUpOnly(seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		silT, err := siliconSetUp()
		if err != nil {
			return nil, err
		}
		if i > 0 {
			setups = append(setups, (simT + silT).Seconds())
			setupCals = append(setupCals, cal)
		}
	}

	simBudget := time.Duration(float64(budget) * (1 - mainShare))
	if !w.silicon {
		simBudget = time.Duration(float64(budget) * mainShare)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	sp, err := simulate(w.sims, seed, simBudget, tr)
	if err != nil {
		return nil, err
	}
	si := silicon(budget-simBudget, seed, tr)

	rep.attempted = sp.attempted + si.attempted
	rep.failed = sp.failed + si.failed
	for _, f := range append(sp.failures, si.failures...) {
		rep.note("FAILED %s", f)
	}
	if err := recordRun(rep, w, seed, rev, sp.passes[0].records, outDir); err != nil {
		return nil, err
	}

	if !traced {
		rep.defs = endToEnd
		endToEndMetrics(rep, w, sp, si, setups, setupCals)
		return rep, nil
	}
	rep.defs = perLayer
	layerMetrics(rep, w, sp, si, tr)
	path := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.note("spans written to %s; held-out seed %d", path, heldOutSeed)
	return rep, nil
}

// endToEndMetrics fills the untraced run's metrics. Host times and
// rates are scaled to the reference host (see calibrate.go): each pass
// by its own calibrations, each silicon round by its own, and each
// set-up by the calibration just before it.
func endToEndMetrics(rep *report, w workload, sp *simPhase, si *siliconResult, setups, setupCals []float64) {
	v := rep.values
	var speeds, rates []float64
	for _, p := range sp.passes {
		speeds = append(speeds, hostSpeed(p.cal))
	}
	raw := throughputs(sp.passes)
	for i, r := range raw {
		rates = append(rates, r/speeds[i])
	}
	v["sim_minstr_per_s"] = median(rates)
	perSim := make([]float64, len(sp.passes[0].runNs))
	for i := range perSim {
		var xs []float64
		for j, p := range sp.passes {
			xs = append(xs, p.runNs[i]*speeds[j]/1e6)
		}
		perSim[i] = median(xs)
	}
	v["run_ms_p50"] = median(perSim)
	var pct float64
	v["run_ms_tail"], pct = tail(perSim)
	rep.note("run_ms: per-simulation median over %d passes of the %s set; tail is %s",
		len(sp.passes), w.sims.name, tailLabel(pct, len(perSim)))
	for i := range setups {
		setups[i] *= float64(refCalibration) / setupCals[i]
	}
	v["setup_s"] = median(setups)
	var peaks []float64
	for _, p := range sp.passes {
		peaks = append(peaks, p.peakRSS)
	}
	v["peak_rss_mb"] = median(peaks)
	rep.note("per pass: raw Minstr/s %.4f, host speed %.4f, peak RSS MB %.2f", raw, speeds, peaks)
	v["paper_err"] = w.sims.paperErr(w.sims.speedups(sp.passes[0].records))
	var deque, reads []float64
	for i, s := range si.speed {
		deque = append(deque, si.dequeAsym[i]/s)
		reads = append(reads, si.readsAsym[i]/s)
	}
	v["deque_mops_per_s"] = median(deque)
	v["stm_mreads_per_s"] = median(reads)
	rep.note("silicon: %d rounds, host speed %.4f, raw Mops/s %.4f, raw Mreads/s %.4f",
		len(si.speed), median(si.speed), median(si.dequeAsym), median(si.readsAsym))
}

// layerMetrics fills the traced run's metrics.
func layerMetrics(rep *report, w workload, sp *simPhase, si *siliconResult, tr *tracer) {
	v := rep.values
	s := w.sims
	first := sp.passes[0].records
	c := total(first)
	kinstr := float64(c.Retired) / 1e3
	counted := float64(c.Busy + c.FenceStall + c.OtherStall)
	fences := float64(c.SFences + c.WFences)

	v["workloads.build_ms"] = median(tr.durations("workloads.Build")) / 1e6
	v["workloads.commits"] = float64(c.Commits)
	v["workloads.abort_frac"] = ratio(float64(c.Aborts), float64(c.Commits+c.Aborts))
	v["workloads.steal_frac"] = ratio(float64(c.Steals), float64(c.Tasks))

	runs := tr.durations("sim.Run")
	var runNs float64
	for _, d := range runs {
		runNs += d
	}
	v["sim.new_ms"] = median(tr.durations("sim.New")) / 1e6
	v["sim.run_s"] = runNs / 1e9 / float64(len(sp.traced))
	v["sim.cycles"] = float64(c.Cycles)
	v["sim.skipped_frac"] = ratio(float64(c.Skipped), float64(c.Cycles))
	v["sim.ns_per_cycle"] = runNs / float64(len(sp.traced)) / float64(c.Cycles)
	v["sim.ns_per_instr"] = runNs / float64(len(sp.traced)) / float64(c.Retired)

	v["cpu.retired_instrs"] = float64(c.Retired)
	v["cpu.busy_frac"] = ratio(float64(c.Busy), counted)
	v["cpu.fence_stall_frac"] = ratio(float64(c.FenceStall), counted)
	v["cpu.other_stall_frac"] = ratio(float64(c.OtherStall), counted)
	v["cpu.squashes_per_kinstr"] = ratio(float64(c.Squashes), kinstr)
	v["cpu.mispredicts_per_kinstr"] = ratio(float64(c.Mispredicts), kinstr)

	v["fence.strong_per_kinstr"] = ratio(float64(c.SFences), kinstr)
	v["fence.weak_per_kinstr"] = ratio(float64(c.WFences), kinstr)
	v["fence.demoted_frac"] = ratio(float64(c.Demoted), fences)
	v["fence.bs_lines_avg"] = ratio(float64(c.BSLinesSum), float64(c.BSLinesSamples))
	v["fence.bounces_per_kwf"] = ratio(1e3*float64(c.BouncedWrites), float64(c.WFences))
	v["fence.recoveries_per_kwf"] = ratio(1e3*float64(c.Recoveries), float64(c.WFences))
	v["fence.order_ops"] = float64(c.OrderOps)

	v["coherence.gets"] = float64(c.GetS)
	v["coherence.getm"] = float64(c.GetM)
	v["coherence.l2_hit_frac"] = ratio(float64(c.L2Hits), float64(c.L2Hits+c.MemFetches))
	v["coherence.bounced_writes"] = float64(c.DirBounced)

	v["noc.packets"] = float64(c.Packets)
	v["noc.bytes_per_kinstr"] = ratio(float64(c.Bytes), kinstr)

	gc := sp.passes[0].gc
	v["gc.allocs_per_kinstr"] = ratio(float64(gc.mallocs), kinstr)
	v["gc.alloc_b_per_kinstr"] = ratio(float64(gc.bytes), kinstr)
	v["gc.count"] = float64(gc.count)
	v["gc.pause_ms"] = float64(gc.pause) / 1e6

	var samples int64
	for _, n := range sp.profile {
		samples += n
	}
	for _, l := range profileLayers {
		v[l+".self_pct"] = 100 * ratio(float64(sp.profile[l]), float64(samples))
	}
	rep.note("self_pct: %d CPU samples over %d traced pass(es)", samples, len(sp.traced))

	sup := s.speedups(first)
	v["experiments.speedup_wsplus"] = sup[fence.WSPlus]
	v["experiments.speedup_wplus"] = sup[fence.WPlus]
	v["experiments.speedup_wee"] = sup[fence.Wee]
	v["experiments.splus_fence_stall"] = s.splusFenceStall(first)
	v["experiments.paper_err"] = s.paperErr(sup)
	hup := s.speedups(sp.heldOut)
	v["experiments.heldout_speedup_wsplus"] = hup[fence.WSPlus]
	v["experiments.heldout_speedup_wplus"] = hup[fence.WPlus]
	v["experiments.heldout_speedup_wee"] = hup[fence.Wee]
	v["experiments.heldout_paper_err"] = s.paperErr(hup)

	v["runtime.light_ns"] = median(si.lightNs)
	v["runtime.full_ns"] = median(si.fullNs)
	v["runtime.heavy_us_p50"] = median(si.heavyNs) / 1e3
	heavy := thin(si.heavyNs, maxLatencySamples)
	hv, pct := tail(heavy)
	v["runtime.heavy_us_tail"] = hv / 1e3
	rep.note("runtime.heavy_us tail is %s", tailLabel(pct, len(heavy)))
	v["runtime.heavy_membarrier"] = float64(si.stats1.HeavyMembarrier - si.stats0.HeavyMembarrier)
	v["runtime.heavy_fallback"] = float64(si.stats1.HeavyFallback - si.stats0.HeavyFallback)
	v["runtime.eintr_retries"] = float64(si.stats1.EINTRRetries - si.stats0.EINTRRetries)
	v["runtime.degradations"] = float64(si.stats1.Degradations - si.stats0.Degradations)

	v["thedeque.steal_us_p50"] = median(si.stealNs) / 1e3
	v["thedeque.steal_success_frac"] = ratio(float64(si.steals), float64(si.stealTries))
	v["thedeque.sym_mops_per_s"] = median(si.dequeSym)
	v["thedeque.asym_speedup"] = ratio(median(si.dequeAsym), median(si.dequeSym))

	v["tlrw.write_us_p50"] = median(si.writeNs) / 1e3
	writes := thin(si.writeNs, maxLatencySamples)
	wv, wpct := tail(writes)
	v["tlrw.write_us_tail"] = wv / 1e3
	rep.note("tlrw.write_us tail is %s (of %d writes)", tailLabel(wpct, len(writes)), len(si.writeNs))
	v["tlrw.writes"] = float64(si.writes)
	v["tlrw.sym_mreads_per_s"] = median(si.readsSym)
	v["tlrw.asym_speedup"] = ratio(median(si.readsAsym), median(si.readsSym))

	var cals []float64
	for _, p := range append(sp.passes, sp.traced...) {
		cals = append(cals, p.cal...)
	}
	v["host.speed"] = hostSpeed(cals)
	untraced, traced := median(throughputs(sp.passes)), median(throughputs(sp.traced))
	v["trace.untraced_minstr_per_s"] = untraced
	v["trace.traced_minstr_per_s"] = traced
	v["trace.overhead_pct"] = 100 * ratio(untraced-traced, untraced)
	v["trace.spans"] = float64(tr.count())
}

// runRecord is the determinism record of one workload and seed: every
// simulation's digest and per-layer counts.
type runRecord struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Revision    string      `json:"revision"`
	Simulations []simRecord `json:"simulations"`
}

// recordRun writes the run's determinism record. When an earlier run of
// the same sources, workload and seed left a record, every simulation
// whose record differs from it counts as failed.
func recordRun(rep *report, w workload, seed uint64, rev string, recs []simRecord, outDir string) error {
	path := filepath.Join(outDir, "records", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	rec := runRecord{Workload: w.name, Seed: seed, Revision: rev, Simulations: recs}
	if old, err := os.ReadFile(path); err == nil {
		var prev runRecord
		if json.Unmarshal(old, &prev) == nil && prev.Revision == rev && len(prev.Simulations) == len(recs) {
			for i := range recs {
				if recs[i] != prev.Simulations[i] {
					rep.failed++
					rep.note("FAILED %s/%s: record differs from an earlier run of seed %d",
						recs[i].App, recs[i].Design, seed)
				}
			}
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	rep.note("determinism record: %s", path)
	return nil
}

// sourceRevision identifies the sources the benchmark was built from: a
// SHA-256 over the path and content of every Go source and module file
// under root, outside hidden directories. Checkouts need not be git
// repositories, so this stands in for a commit id.
func sourceRevision(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// kernelRelease returns the running kernel's release, or "unknown".
func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS count, so the next peakRSSMB reading covers only what follows.
// Where the count cannot be reset, readings cover the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size in MB (VmHWM),
// falling back to the memory the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
