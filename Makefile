# Developer checks for the asymfence simulator. `make check` is the
# everything gate; individual targets below.

GO ?= go

.PHONY: check fmt vet doccheck build test race race-runner check-store \
	check-runtime check-conform smoke bench bench-snapshot \
	bench-baseline bench-metrics bench-hw check-invariants fuzz-smoke

check: fmt vet doccheck build test race-runner check-store check-invariants check-runtime check-conform fuzz-smoke smoke

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Documentation lint (tools/doccheck): package docs everywhere, doc
# comments on every exported identifier in internal packages.
doccheck:
	$(GO) run ./tools/doccheck ./runtime/... ./internal/... ./cmd/... ./examples/... .
	$(GO) run ./tools/doccheck -exported ./runtime/... ./internal/...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Each simulation is still a single deterministic cycle loop; the only
# goroutines live in the experiment runner's worker pool. The race
# target keeps the whole tree race-clean under that fan-out.
race:
	$(GO) test -race ./...

# The engine's concurrency contract under the race detector: the
# sequential-vs-parallel equivalence, cache accounting and cancellation
# tests, plus the runner package's own suite.
race-runner:
	$(GO) test -race -run 'Equivalence|CacheHit|Cancellation' -count=1 .
	$(GO) test -race -count=1 ./internal/experiments/runner/

# The persistence layer under the race detector: the content-addressed
# store's crash-safety/GC suite, the runner's read-through/write-behind
# tier contract and the warm-vs-cold byte-equivalence tests. Every test
# runs in its own t.TempDir, so no state leaks between runs.
check-store:
	$(GO) test -race -count=1 ./internal/store/
	$(GO) test -race -count=1 -run 'Tier|StoreMetrics' ./internal/experiments/runner/
	$(GO) test -race -count=1 -run 'TestStore' .

# The real-hardware fence runtime under the race detector: the
# asymruntime mode/registration suite, the exactly-once deque stress
# and the torn-read TLRW stress (each in every available fence mode),
# and the hwbench driver's snapshot-shape tests — run twice, once
# resolving membarrier naturally and once with the seq-cst fallback
# forced through the environment, so the portable path cannot rot on
# membarrier-capable CI machines (see HARDWARE.md).
check-runtime:
	$(GO) test -race -count=1 ./runtime/...
	ASYMFENCE_MODE=fallback $(GO) test -race -count=1 ./runtime/...
	$(GO) test -race -count=1 -run 'TestHWBench' ./cmd/asymsim/

# Cross-domain litmus conformance (ROBUSTNESS.md §8): the TSO
# reference enumerator, the real-goroutine litmus runner and the
# conformance campaign suites under the race detector, the fence
# runtime's fault-injection/degradation suite, the mid-run
# mode-degradation torture tests for the deque and the TLRW read-lock,
# and the quick CLI campaign (50 seeds x 5 designs x both fence modes)
# with its byte-reproducible report.
check-conform:
	$(GO) test -race -count=1 ./internal/tso/ ./runtime/litmusrun/
	$(GO) test -race -count=1 -run 'TestFault|TestHeavyFence|TestConcurrentDegradation|TestStatsSnapshot' ./runtime/
	$(GO) test -race -count=1 -run 'TestTorture' ./runtime/thedeque/ ./runtime/tlrw/
	$(GO) test -race -count=1 -run 'TestConform|TestMinimize' . ./cmd/asymsim/
	$(GO) run ./cmd/asymsim conform -quick -q

# Quick end-to-end sanity: the headline experiment at reduced scale on
# a parallel worker pool, the real-hardware bench driver with the
# simulator cross-validation table at smoke scale, plus the quick
# cross-domain conformance sweep.
smoke:
	$(GO) run ./cmd/asymsim -scale 0.1 -horizon 20000 -j 4 headline
	$(GO) run ./cmd/asymsim hwbench -quick
	$(GO) run ./cmd/asymsim conform -quick -q

# Checked-in real-hardware baseline (BENCH_PR9_HW.json): the goroutine
# ports of the Cilk-THE deque and the TLRW STM read-lock, asymmetric
# membarrier fences vs symmetric baselines across thread counts, with
# the simulator's Fig. 8/9 predictions alongside (HARDWARE.md).
bench-hw:
	$(GO) run ./cmd/asymsim hwbench -out BENCH_PR9_HW.json

# The runtime invariant oracle under the race detector: the litmus
# suite with all checkers on for every design, the broken-fence
# regression, and the oracle/injector unit suites (see ROBUSTNESS.md).
check-invariants:
	$(GO) test -race -count=1 ./internal/check/ ./internal/faults/
	$(GO) test -race -count=1 -run 'Checker|BrokenFence|ConfigValidate|Deadlock' ./internal/sim/

# Bounded deterministic fuzz campaign: seeded random racy litmus
# programs under every design with checkers and fault injection on.
# Byte-reproducible; a violation prints a minimized reproducer.
fuzz-smoke:
	$(GO) run ./cmd/asymsim fuzz -seeds 100 -q
	$(GO) test -count=1 -run 'TestGenerateSmoke|TestFuzz' ./internal/workloads/litmus/ .

# Short per-subsystem microbenchmarks (NoC, cache, directory, cycle
# kernel). Quick enough for the inner loop; see PERFORMANCE.md for how
# to read and extend them.
bench:
	$(GO) test -run XX -bench . -benchtime 200ms \
		./internal/noc/ ./internal/cache/ ./internal/coherence/ ./internal/sim/

# Perf snapshot of every (workload, design) pair -> BENCH_<date>.json.
bench-snapshot:
	$(GO) run ./cmd/asymsim bench

# Checked-in cycle-kernel baseline (BENCH_PR4.json): cycles/sec, ns/op
# and allocs per fence design at 8 and 64 cores, plus the sequential
# `-q -seq all` wall clock. Set BEFORE=<old.json> to record a speedup
# comparison against a previous snapshot.
bench-baseline:
	$(GO) run ./cmd/asymsim benchkernel -out BENCH_PR4.json \
		$(if $(BEFORE),-before $(BEFORE))

# Checked-in metrics-overhead baseline (BENCH_PR6.json): the cycle
# kernel with metrics collection off (before) vs on (after), measured
# back to back in one process and best-of-3 per row, so the "metrics
# are within noise" claim of OBSERVABILITY.md stays measured.
bench-metrics:
	$(GO) run ./cmd/asymsim benchkernel -skip-all -repeat 3 \
		-compare-metrics -out BENCH_PR6.json
