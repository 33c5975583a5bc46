package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"asymfence/internal/fence"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
	"asymfence/internal/workloads/stm"
	"asymfence/runtime/thedeque"
	"asymfence/runtime/tlrw"
)

// smallCilk is the CilkApps set at a tenth of the task count, for tests
// that only need some simulations.
var smallCilk = simSet{name: "cilk-tenth", group: "cilk", scale: 0.1, paper: cilkSet.paper}

// runSet runs one pass of s at seed and fails the test on any failed
// output check.
func runSet(t *testing.T, s simSet, seed uint64) []simRecord {
	t.Helper()
	pr := s.pass(seed, nil)
	for _, r := range pr.records {
		if r.Error != "" {
			t.Errorf("%s %s/%s seed %d: %s", s.name, r.App, r.Design, seed, r.Error)
		}
	}
	return pr.records
}

// TestFigureCrossCheck proves the benchmark drives the same model the
// figures do: at the figure seed and configuration its speedups must
// reproduce EXPERIMENTS.md's Fig. 9 AVG row (1.13/1.25/1.01) and the
// CilkApps row of the headline table (11.5%/11.4%/11.5%).
func TestFigureCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Fig. 8 and Fig. 9 sets")
	}
	u := runSet(t, ustmSet, figureSeed)
	sp := ustmSet.speedups(u)
	got := fmt.Sprintf("%.2f/%.2f/%.2f", sp[fence.WSPlus], sp[fence.WPlus], sp[fence.Wee])
	if want := "1.13/1.25/1.01"; got != want {
		t.Errorf("ustm speedups WS+/W+/Wee = %s, want Fig. 9 AVG %s", got, want)
	}

	fig8 := cilkSet
	fig8.scale = 1
	c := runSet(t, fig8, figureSeed)
	sp = fig8.speedups(c)
	imp := func(d fence.Design) float64 { return 100 * (1 - 1/sp[d]) }
	got = fmt.Sprintf("%.1f/%.1f/%.1f", imp(fence.WSPlus), imp(fence.WPlus), imp(fence.Wee))
	if want := "11.5/11.4/11.5"; got != want {
		t.Errorf("CilkApps improvements WS+/W+/Wee = %s%%, want headline %s%%", got, want)
	}
}

// TestHeldOutSeed reports the paper error and speedups on the held-out
// seed beside the figure seed's, and checks that the held-out seed keeps
// the figures' design order.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ustm and cilk sets at two seeds")
	}
	for _, s := range []simSet{ustmSet, cilkSet} {
		for _, seed := range []uint64{figureSeed, heldOutSeed} {
			sp := s.speedups(runSet(t, s, seed))
			t.Logf("%s seed %d: paper_err %.4f, speedups WS+ %.4f W+ %.4f Wee %.4f",
				s.name, seed, s.paperErr(sp), sp[fence.WSPlus], sp[fence.WPlus], sp[fence.Wee])
			if seed != heldOutSeed {
				continue
			}
			if sp[fence.WSPlus] <= 1.05 || sp[fence.WPlus] <= 1.05 {
				t.Errorf("%s held-out seed: WS+ %.4f and W+ %.4f should beat S+ by more than 5%%",
					s.name, sp[fence.WSPlus], sp[fence.WPlus])
			}
			if s.group == "ustm" && sp[fence.WPlus] <= sp[fence.WSPlus] {
				t.Errorf("ustm held-out seed: W+ %.4f should beat WS+ %.4f", sp[fence.WPlus], sp[fence.WSPlus])
			}
		}
	}
}

// TestUSTMCheckCatchesLostUpdates shows the ustm output check can fail:
// without the TLRW barrier fences conflicting transactions miss each
// other's flags and lose updates, which the data-word sum must catch.
func TestUSTMCheckCatchesLostUpdates(t *testing.T) {
	p, _ := stm.USTMByName("Counter")
	p.Iterations = 0
	al, store, privacy := mem.NewAllocator(0x1000), mem.NewStore(), mem.NewPrivacy()
	wl := stm.Build(p, simCores, stm.Assignment{NoFences: true}, figureSeed, al, store, privacy)
	m, err := sim.New(sim.Config{NCores: simCores, Design: fence.SPlus, Privacy: privacy,
		WarmRegions: wl.WarmRegions, MaxCycles: ustmSet.horizon + 1}, wl.Progs, store)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkUSTM(m, wl, m.RunFor(ustmSet.horizon)); err == nil {
		t.Fatal("unfenced Counter passed the data-word check; lost updates went unnoticed")
	}
}

// TestCilkCheckCatchesMissingTasks shows the CilkApps output check fails
// when the executed-task count differs from the seeded one.
func TestCilkCheckCatchesMissingTasks(t *testing.T) {
	s := smallCilk
	inst, _, _, err := s.setUp(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.run()
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.check(res); err != nil {
		t.Fatalf("clean run failed its check: %v", err)
	}
	res.Finished = false
	if inst.check(res) == nil {
		t.Error("unfinished run passed the check")
	}
}

// TestPassesRepeatExactly checks the determinism record: two passes of
// one seed produce identical digests and counts.
func TestPassesRepeatExactly(t *testing.T) {
	a := smallCilk.pass(3, nil).records
	b := smallCilk.pass(3, nil).records
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s/%s differs between passes", a[i].App, a[i].Design)
		}
	}
	var ph simPhase
	b[5].Retired++
	ph.tally(passResult{records: b}, a)
	if ph.failed != 1 || ph.attempted != len(a) {
		t.Errorf("tally of one altered record: %d failed of %d, want 1 of %d", ph.failed, ph.attempted, len(a))
	}
}

// TestRecordRunFlagsDrift checks that a record differing from an earlier
// run of the same sources and seed counts as a failure, and one from
// other sources does not.
func TestRecordRunFlagsDrift(t *testing.T) {
	dir := t.TempDir()
	w := workloads[0]
	recs := []simRecord{{App: "a", Design: "S+", Digest: "x"}, {App: "b", Design: "S+", Digest: "y"}}
	for _, tc := range []struct {
		rev    string
		digest string
		failed int
	}{{"r1", "y", 0}, {"r1", "y", 0}, {"r1", "z", 1}, {"r2", "y", 0}} {
		rep := &report{}
		recs[1].Digest = tc.digest
		if err := recordRun(rep, w, 1, tc.rev, recs, dir); err != nil {
			t.Fatal(err)
		}
		if rep.failed != tc.failed {
			t.Errorf("rev %s digest %s: %d failed, want %d", tc.rev, tc.digest, rep.failed, tc.failed)
		}
	}
}

// TestChecksumDetectsLossAndDuplication checks the deque's exactly-once
// checksum.
func TestChecksumDetectsLossAndDuplication(t *testing.T) {
	var pushed, ok, lost, dup checksum
	for id := uint64(1); id <= 100; id++ {
		pushed.add(id)
		ok.add(id)
		if id != 50 {
			lost.add(id)
			dup.add(id)
		}
	}
	dup.add(49)
	if ok != pushed {
		t.Error("identical multisets differ")
	}
	if lost == pushed || dup == pushed {
		t.Error("a lost or a duplicated task went unnoticed")
	}
}

// TestSiliconSlices runs each silicon slice once per variant.
func TestSiliconSlices(t *testing.T) {
	ids := []uint64{11, 22, 33, 44}
	for _, v := range []thedeque.Variant{thedeque.Asymmetric, thedeque.Symmetric} {
		out := dequeSlice(v, ids, 1, nil)
		if out.err != nil || out.mops <= 0 {
			t.Errorf("deque %v: %.3f Mops/s, err %v", v, out.mops, out.err)
		}
	}
	for _, v := range []tlrw.Variant{tlrw.Asymmetric, tlrw.Symmetric} {
		out := tlrwSlice(v, 1, nil)
		if out.err != nil || out.mreads <= 0 || out.writes == 0 {
			t.Errorf("tlrw %v: %.3f Mreads/s, %d writes, err %v", v, out.mreads, out.writes, out.err)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		pct, val float64
	}{{5, 100, 5}, {20, 50, 10}, {40, 75, 30}, {200, 95, 190}, {500, 95, 475}, {1000, 99, 990}} {
		v, p := tail(seq(tc.n))
		if v != tc.val || p != tc.pct {
			t.Errorf("tail of 1..%d = %g at p%g, want %g at p%g", tc.n, v, p, tc.val, tc.pct)
		}
	}
	if n := len(thin(seq(3062), maxLatencySamples)); n > maxLatencySamples || n < maxLatencySamples/2 {
		t.Errorf("thin kept %d samples", n)
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess1_fast64", "asymfence/internal/cpu.(*Core).Step"}, "cpu"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "asymfence/internal/noc.(*Mesh[...]).Send"}, "gc"},
		{[]string{"asymfence/internal/mem.(*Store).Load", "asymfence/internal/coherence.(*Directory).Handle"}, "coherence"},
		{[]string{"main.(*tracer).add", "asymfence/internal/sim.(*Machine).Step"}, "other"},
		{[]string{"runtime.futex"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestAttributeRealProfile decodes a CPU profile of this process.
func TestAttributeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	s := smallCilk
	deadline := time.Now().Add(300 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i = (i + 1) % s.size() {
		inst, _, _, err := s.setUp(i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.run(); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	acc := map[string]int64{}
	if err := attribute(buf.Bytes(), acc); err != nil {
		t.Fatal(err)
	}
	if acc["cpu"] == 0 {
		t.Errorf("no samples attributed to the cpu layer: %v", acc)
	}
	if err := attribute([]byte("not a profile"), acc); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

// TestRunPrintsEveryMetric runs the silicon workload briefly, untraced
// and traced, and checks the last line carries exactly the listed
// metrics with their units.
func TestRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark twice")
	}
	dir := t.TempDir()
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var out, errb bytes.Buffer
		code := run([]string{"--workload", "silicon", "--seed", "5", "--seconds", "1", "--trace", trace, "--out", dir}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %s: correct %v, %d failed of %d", trace, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, d.name, m, d.unit)
			}
		}
	}
	if code := run([]string{"--workload", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("unknown workload accepted")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// names the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
