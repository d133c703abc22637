#!/bin/sh
# ci.sh — the tier-1+ gate for cdrstoch.
#
# Tier 1 (the seed's contract) is `go build ./... && go test ./...`.
# This script is the stricter gate run before merging: it adds vet, the
# race detector, and a one-iteration benchmark smoke so the benchmark
# harness (and the BenchmarkStationary allocation baseline for the obs
# layer) cannot silently rot. Run it from the repository root:
#
#     ./ci.sh
#
# It needs only the Go toolchain — no external dependencies.
#
#     ./ci.sh chaos
#
# runs only the chaos stage (the fault-injection suite under -race,
# replayed across a fixed seed matrix). The suite self-skips under
# `go test -short`, so short CI legs stay fast automatically.
set -eu

# run_tests PATTERN [FLAG|PACKAGE...] runs `go test -run PATTERN` over the
# packages, after checking with `go test -list` that every |-separated
# alternative of PATTERN selects at least one test: `go test -run` passes
# with "no tests to run" on a pattern that a rename has emptied.
run_tests() {
    pattern=$1
    shift
    for alt in $(echo "$pattern" | tr '|' ' '); do
        if ! go test -list "$alt" "$@" | grep -Eq '^(Test|Fuzz|Example)'; then
            echo "ci.sh: -run '$alt' selects no tests in: $*" >&2
            exit 1
        fi
    done
    go test -run "$pattern" "$@"
}

# chaos_stage replays the deterministic fault-injection suite (storms at
# every seam: solver entry, cache insert/evict, singleflight leader,
# job dequeue, cycle boundaries) across a fixed seed matrix, under the
# race detector. Seeds are pinned so a CI failure reproduces locally
# with the printed CDR_FAULTS_SEED.
chaos_stage() {
    echo "== chaos (fault-injection suite, -race, seed matrix) =="
    for seed in 1 7 42; do
        echo "-- CDR_FAULTS_SEED=$seed"
        CDR_FAULTS_SEED="$seed" go test -race -count=1 ./internal/faults
        CDR_FAULTS_SEED="$seed" run_tests \
            'Chaos|CachedLeaderDeath|LeaderPanic|JobsShed|SubmitCloseRace|RequestTimeout' \
            -race -count=1 ./internal/serve
    done
}

if [ "${1:-}" = "chaos" ]; then
    chaos_stage
    echo "== ci.sh: chaos gate passed =="
    exit 0
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

chaos_stage

echo "== metrics lint (every name survives Prometheus sanitization, no collisions) =="
run_tests 'TestServerMetricsSurviveLint|TestLintMetrics' -count=1 \
    ./internal/serve ./internal/obs
run_tests 'TestRuntimeCollectorPoll' -count=1 ./internal/obs/cost
# The progress/watchdog metric families (progress.*, watchdog.*) are
# touched eagerly at tracker construction, so this lint sees them all.
run_tests 'TestTrackerMetricsSurviveLint' -count=1 ./internal/obs/progress

echo "== cost accounting allocs (zero-alloc kernel hot path, -race) =="
run_tests 'TestPoolKernelsAllocFree|TestPoolMulVecsAllocFree|TestPoolMulVecsBitIdentical' \
    -race -count=1 ./internal/spmat

echo "== kron backend parity (matrix-free vs explicit, -race) =="
# The matrix-free Kronecker backend must agree with the explicit CSR
# backend at every layer it plugs into: the shuffle kernels against the
# materialized matrix (including the parallel split) and, bit for bit,
# against the full-slab evaluation their support restriction replaces,
# the operator-backed markov solvers, the implicit-fine-level multigrid
# (including its trace, level for level, against the explicit one, and
# its segment smoother and restriction against point Gauss–Seidel on the
# materialized matrix and the row-by-row restriction they replaced), the
# core analysis, the FSM synchronous product, and the HTTP backend
# selector end to end.
run_tests 'TestParallelShuffleMatchesSerial|TestShuffleMatchesFullSlab|TestStructuralSurfaceMatchesMaterialized|TestDescriptorMatchesFSMProduct|TestUnconvergedSentinelCrossesLayers' \
    -race -count=1 ./internal/kron
run_tests 'TestOperatorChain' -race -count=1 ./internal/markov
run_tests 'TestKronSolver|TestTraceLevelEventsMatchVisits|TestSegmentSweepMatchesPointGaussSeidel|TestSegmentRestrictMatchesRowIter' \
    -race -count=1 ./internal/multigrid
run_tests 'TestSolveKron|TestBuildShell' -race -count=1 ./internal/core
run_tests 'TestAnalyzeKronBackendParity|TestBackendValidation' -race -count=1 ./internal/serve

echo "== kron workspace allocs (zero-alloc shuffle products and implicit-level cycles) =="
run_tests 'TestShuffleProductsAllocFree|TestRowIterAllocFree' -count=1 ./internal/kron
run_tests 'TestKronSolverAllocsDoNotScaleWithCycles|TestCoarsestFallbackAllocFree' -count=1 ./internal/multigrid

echo "== benchmark harness unit tests (bench/ builds against the library) =="
# bench/ is its own module (replace cdrstoch => ../), so ./... above never
# compiles it; this stage catches a library API change that breaks it.
(cd bench && go test -short -count=1 .)

echo "== bench smoke (1 iteration per benchmark) =="
go test -run '^$' -bench 'BenchmarkStationary|BenchmarkFig3MatrixForm' \
    -benchtime 1x -benchmem .

echo "== sweep throughput (batched vs pointwise, 1 iteration) =="
# One full 12-point Figure 5 noise sweep per mode. The batch sub-benchmark
# cross-checks its BERs against the pointwise reference and fails the run
# on drift, so this stage gates accuracy; the committed BENCH_*.json
# snapshots (diffed below) gate the throughput ratio over time.
go test -run '^$' -bench '^BenchmarkSweepFig5$' -benchtime 1x -benchmem .

echo "== cdrserved smoke (build, serve, cache-hit replay, SIGTERM drain) =="
run_tests '^TestServerSmoke$' -count=1 -v ./cmd/cdrserved

echo "== live progress (SSE stream + seeded stall injection, -race) =="
# The SSE smoke proves a batched sweep job streams one parseable progress
# event per point plus a terminal frame; the stall case injects a delay
# fault at the multigrid.cycle seam and requires the watchdog to classify
# the solve stalled (with the job's trace ID on the verdict) within the
# configured window, then cancel it. Seeded like the chaos stage.
CDR_FAULTS_SEED=1 run_tests 'TestJobEventsSSE|TestWatchdogStallInjection|TestDebugProgressLiveETA' \
    -race -count=1 ./internal/serve

echo "== bench compare (optional; needs two committed BENCH_*.json) =="
# Diff the two newest committed benchmark snapshots, newest by the commit
# that added them: git log lists the most recent addition first. (File
# mtimes cannot order them: a fresh clone gives every file the same one.)
# With fewer than two snapshots there is nothing to compare, so the stage
# skips cleanly — the first benchmarked commit and a tree without git
# history must not fail CI. The generous time threshold (50%) absorbs
# machine-to-machine noise; tighten it locally when hunting a specific
# regression. Allocation metrics are exact counts, so they gate tighter:
# 25% growth in allocs/op or B/op fails — that is what catches an
# instrumented hot loop that silently started allocating.
snapshots=
for f in $(git log --diff-filter=A --format= --name-only -- 'BENCH_*.json' 2>/dev/null || true); do
    if [ -f "$f" ]; then
        snapshots="$snapshots $f"
    fi
done
set -- $snapshots
if [ "$#" -ge 2 ]; then
    new="$1"
    old="$2"
    echo "comparing $old (old) -> $new (new)"
    go run ./cmd/cdrbench -compare -threshold 0.5 \
        -threshold-allocs 0.25 -threshold-bytes 0.25 "$old" "$new"
else
    echo "skipped: found $# snapshot(s), need 2"
fi

echo "== ci.sh: all gates passed =="
