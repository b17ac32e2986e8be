# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all build test test-short cover cover-gate bench bench-smoke bench-vm bench-vm-check bench-diff race-bench race-reuse exp exp-quick fmt vet lint clean ci fuzz-smoke difftest chaos-smoke predict-sweep serve-smoke perfbench-check

# Coverage floors for the packages the correctness argument rests on.
# Raise them when coverage genuinely improves; lowering one is a
# reviewable decision, not a CI tweak.
COVER_MIN_CORE      := 90
COVER_MIN_PARALLEL  := 85
COVER_MIN_ANALYSIS  := 80
COVER_MIN_SERVE     := 93
COVER_MIN_SUPERVISE := 82
COVER_MIN_VM        := 88

all: build vet lint test

# What CI runs: static checks, full build, race-enabled tests (every
# package but internal/difftest first, then internal/difftest alone:
# its generated-program sweep is the longest race test binary and gets
# the CPUs to itself under go test's default timeout), the coverage
# gate, a short fuzz pass over the parsers that face
# untrusted input (the daemon's request and manifest decoders among
# them) and over the image-to-VM boundary, the 500-seed
# differential-testing sweep, the pool-level chaos sweep, the
# batched-buffer race benchmark, the
# pooled-reuse chaos smoke, a one-iteration benchmark smoke (every
# exhibit still regenerates), the VM hot-loop regression gate
# (hook-overhead ratio and hooked-run allocation count) against the
# recorded baseline, and a build of the repository benchmark.
ci: vet lint build
	go test -race $$(go list ./... | grep -v '/internal/difftest$$')
	go test -race ./internal/difftest
	$(MAKE) cover-gate
	$(MAKE) serve-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) difftest
	$(MAKE) predict-sweep
	$(MAKE) chaos-smoke
	$(MAKE) race-bench
	$(MAKE) race-reuse
	$(MAKE) bench-smoke
	$(MAKE) bench-vm-check
	$(MAKE) perfbench-check

# Repo-specific static checks: the custom vet pass over command code,
# the analysis package, the worker pool, the serve daemon, and the
# retry supervisor (no raw os.Create/os.WriteFile, no ranging analysis
# fact tables straight into reports, no per-job VM/profiler allocation
# outside the arena, no os.Exit in serve handlers, no VM acquired or
# instrumented outside parallel.RunJob — see internal/lint), the VRISC
# bytecode verifier over every workload and the assembly examples, and
# staticcheck when it is installed (the toolchain image may not have
# it; it must not be a hard dependency).
lint:
	go run ./internal/lint/vvet cmd internal/analysis internal/parallel internal/serve internal/supervise
	go run ./cmd/vlint -all
	go run ./cmd/vlint examples/asm/sum.s
	go run ./cmd/vlint examples/asm/warnings.s
	go run ./cmd/vlint examples/asm/deadbranch.s
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi

# Each -fuzz pattern names exactly one target. -fuzzminimizetime=100x
# caps the runs spent shrinking each new input: at the default (60 s
# per input) the workers spent most of a 30 s smoke minimizing the
# first inputs they found (FuzzReadCheckpointPolicy ran 71 inputs, and
# 458199 with the cap).
FUZZ_SMOKE := -run='^$$' -fuzztime=30s -fuzzminimizetime=100x
fuzz-smoke:
	go test ./internal/core $(FUZZ_SMOKE) -fuzz=FuzzReadProfileRecord
	go test ./internal/core $(FUZZ_SMOKE) -fuzz=FuzzReadCheckpointPolicy
	go test ./internal/core $(FUZZ_SMOKE) -fuzz=FuzzTNVAdd
	go test ./internal/asm $(FUZZ_SMOKE) -fuzz=FuzzAssemble
	go test ./internal/vm $(FUZZ_SMOKE) -fuzz=FuzzLoadRun
	go test ./internal/serve $(FUZZ_SMOKE) -fuzz=FuzzDecodeRequest
	go test ./internal/serve $(FUZZ_SMOKE) -fuzz=FuzzLoadManifest

# The differential-testing sweep: 500 generated programs checked
# against the naive reference oracle (see docs/difftest.md). Any
# divergence fails the build and leaves a shrunk repro in
# internal/difftest/testdata/corpus.
difftest:
	go run ./cmd/vfuzz -seeds 500

# The predicted-invariance soundness sweep: 300 programs from the
# interval-edge generator (wraparound arithmetic, non-unit strides,
# equality-range branches), each profiled at full fidelity with every
# proved-tier claim of analysis.Predict checked against the recorded
# profile. One contradiction fails the build — the proved tier is the
# adaptive hook budget's license to drop instrumentation entirely.
predict-sweep:
	go run ./cmd/vfuzz -predict -seeds 300

# The pool-level chaos sweep: 200 seeds of supervised jobs under
# injected kills, stalls, and checkpoint corruption, run with the race
# detector on. Asserts zero hangs (each seed is wall-clock-capped by
# the vfuzz watchdog — generous because the race detector slows the
# guest severalfold), zero corrupt merged profiles, and byte-identical
# retried successes (see docs/robustness.md).
chaos-smoke:
	go run -race ./cmd/vfuzz -chaos -seeds 200 -timecap 60s

# Fail if statement coverage of the correctness-critical packages
# falls below the recorded floor.
cover-gate:
	@out=$$(go test -cover ./internal/core ./internal/parallel ./internal/analysis ./internal/serve ./internal/supervise ./internal/vm) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk -v core=$(COVER_MIN_CORE) -v par=$(COVER_MIN_PARALLEL) -v ana=$(COVER_MIN_ANALYSIS) -v srv=$(COVER_MIN_SERVE) -v sup=$(COVER_MIN_SUPERVISE) -v vm=$(COVER_MIN_VM) ' \
		/valueprof\/internal\/core/     { seen++; if ($$5+0 < core) { printf "cover-gate: internal/core %s < %d%%\n", $$5, core; bad=1 } } \
		/valueprof\/internal\/parallel/ { seen++; if ($$5+0 < par)  { printf "cover-gate: internal/parallel %s < %d%%\n", $$5, par; bad=1 } } \
		/valueprof\/internal\/analysis/ { seen++; if ($$5+0 < ana)  { printf "cover-gate: internal/analysis %s < %d%%\n", $$5, ana; bad=1 } } \
		/valueprof\/internal\/serve/    { seen++; if ($$5+0 < srv)  { printf "cover-gate: internal/serve %s < %d%%\n", $$5, srv; bad=1 } } \
		/valueprof\/internal\/supervise/ { seen++; if ($$5+0 < sup) { printf "cover-gate: internal/supervise %s < %d%%\n", $$5, sup; bad=1 } } \
		/valueprof\/internal\/vm/      { seen++; if ($$5+0 < vm)   { printf "cover-gate: internal/vm %s < %d%%\n", $$5, vm; bad=1 } } \
		END { if (seen != 6) { print "cover-gate: expected 6 coverage lines, saw " seen; bad=1 }; exit bad }'

# The daemon acceptance suite under the race detector: golden endpoint
# contracts, seeded restart-survival chaos, fairness/starvation bounds,
# and the two-client end-to-end scenario (see docs/serve.md).
serve-smoke:
	go test -race -count=1 ./internal/serve

build:
	go build ./...

test:
	go test ./...

test-short:
	go test -short ./...

cover:
	go test -cover ./...

# Regenerate every paper table/figure (full parameter sweeps, ~60 s).
exp:
	go run ./cmd/vexp

exp-quick:
	go run ./cmd/vexp -quick

# One testing.B benchmark per exhibit plus primitive microbenchmarks.
bench:
	go test -bench=. -benchmem ./...

# One iteration of every benchmark: catches bit-rot in the harness
# without the full measurement cost.
bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x ./...

# Record the interpreter hot-loop baseline (BENCH_vm.json): per-opcode
# dispatch, and the hot loop unhooked vs under full-time profiling.
bench-vm:
	go run ./cmd/vexp -bench-vm BENCH_vm.json

# Gate the machine-independent hot-loop figures (the hook-overhead
# ratio and the hooked-run allocation count) against the recorded
# baseline with ±10% tolerance.
bench-vm-check:
	go run ./cmd/vexp -bench-vm-check BENCH_vm.json

# Build and vet the repository benchmark (perfbench/, its own Go
# module, so `go build ./...` here never compiles it) and run its
# short tests, so an API change the benchmark depends on fails here
# instead of in the next benchmark run.
perfbench-check:
	go -C perfbench vet ./...
	go -C perfbench test -short ./...

# Compare two recorded VM baselines without re-measuring: per-metric
# and per-op ratio deltas plus the same ±10% gate bench-vm-check
# applies. Usage: make bench-diff OLD=old.json [NEW=new.json]
OLD ?= BENCH_vm.json
NEW ?= BENCH_vm.json
bench-diff:
	go run ./cmd/vexp -bench-diff $(OLD) $(NEW)

# The batched value buffers under pool-level chaos with the race
# detector on: proves no flush is lost or duplicated when runs are
# killed mid-buffer and salvaged (see docs/perf.md).
race-bench:
	go test -race -run='^$$' -bench=BenchmarkPoolChaosBatched -benchtime=2x ./internal/difftest

# Arena reuse under chaos with the race detector on: wide pools
# recycling VMs and profilers across killed, stalled, and
# checkpoint-corrupted attempts (see docs/perf.md, Campaign 2).
race-reuse:
	go test -race -run=TestPooledReuseChaos ./internal/difftest

fmt:
	gofmt -w .

vet:
	go vet ./...

clean:
	go clean ./...
