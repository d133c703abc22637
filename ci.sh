#!/bin/sh
# ci.sh — the tier-1+ gate for cdrstoch.
#
# Tier 1 (the seed's contract) is `go build ./... && go test ./...`.
# This script is the stricter gate run before merging: it adds gofmt,
# vet, the race detector, and a one-iteration benchmark smoke so the
# benchmark harness (and the BenchmarkStationary allocation baseline for
# the obs layer) cannot silently rot. Run it from the repository root:
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
# race detector, together with the solvers' own fault points
# (markov.sweep, gmres.restart) fired through a run's fault hook. Seeds
# are pinned so a CI failure reproduces locally with the printed
# CDR_FAULTS_SEED.
chaos_stage() {
    echo "== chaos (fault-injection suite, -race, seed matrix) =="
    for seed in 1 7 42; do
        echo "-- CDR_FAULTS_SEED=$seed"
        CDR_FAULTS_SEED="$seed" go test -race -count=1 ./internal/faults
        CDR_FAULTS_SEED="$seed" run_tests 'TestFaultPointsStopSolvers' \
            -race -count=1 ./internal/markov
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

echo "== gofmt (the tree, bench/ included, is gofmt-clean) =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "ci.sh: gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
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

echo "== cost accounting allocs (zero-alloc kernel hot path under -race, run probe, shared meter) =="
run_tests 'TestPoolKernelsAllocFree|TestPoolMulVecsAllocFree|TestPoolMulVecsBitIdentical' \
    -race -count=1 ./internal/spmat
# A solver's per-iteration probe allocates nothing, with no run in its
# context and with a run holding the flight recorder and a progress
# handle; a meter shared by two solves of one solver counts its
# workspace once and sums its per-level work.
run_tests 'TestDisabledPathAllocations|TestStampFromContextDisabledZeroAlloc' -count=1 ./internal/obs
run_tests 'TestProbeIterAllocFree' -count=1 ./internal/obs/progress
run_tests 'TestMeterSharedByTwoSolves|TestMeterAccumulates' -count=1 \
    ./internal/multigrid ./internal/obs/cost

echo "== kron backend parity (matrix-free vs explicit, -race) =="
# The matrix-free Kronecker backend must agree with the explicit CSR
# backend at every layer it plugs into: the shuffle kernels against the
# materialized matrix (including the parallel split) and, bit for bit,
# against the full-slab evaluation their support restriction replaces,
# the operator-backed markov solvers, the implicit-fine-level multigrid
# (including the per-level work its trace's closing span states, on both
# backends, against the solve's level tallies, its
# segment smoother and restriction against point Gauss–Seidel and a
# row-by-row restriction over the materialized matrix, its link product
# against the shuffle product and the materialized matrix, and its level 1,
# written straight into its transpose, bit for bit against the restriction
# into a CSR matrix whose transpose is refreshed), the core analysis and
# the measures a matrix-free model reads from π, the FSM synchronous
# product, and the HTTP backend selector end to end (the
# default, matrix-free /v1/analyze against "backend":"explicit" on the
# paper's presets and the smallest valid grids). The lumping plan that
# builds every explicit coarse level as a transpose runs against the
# transpose of a fresh Lump. The explicit backend is the materialized
# descriptor, so its independent oracles run here too: ToCSR against
# sums of explicit Kronecker products, Build against the four-FSM
# network on random specs, and the regime and frequency-loop chains
# against the direct assembly they replaced.
run_tests 'TestParallelShuffleMatchesSerial|TestShuffleMatchesFullSlab|TestStructuralSurfaceMatchesMaterialized|TestDescriptorMatchesFSMProduct|TestToCSRMatchesKronSum' \
    -race -count=1 ./internal/kron
run_tests 'TestOperatorChain' -race -count=1 ./internal/markov
run_tests 'TestPlanMatchesLump' -race -count=1 ./internal/lump
run_tests 'TestKronSolver|TestTraceSpanEndLevelsMatchVisits|TestSegmentSweepMatchesPointGaussSeidel|TestSegmentProductMatchesDescriptor|TestSegmentRestrictMatchesMaterializedRows|TestSegmentRestrictTransposeBitIdentical' \
    -race -count=1 ./internal/multigrid
run_tests 'TestSolveKron|TestBuildShell|TestQuickDescriptorEquivalence' -race -count=1 ./internal/core
run_tests 'TestBuildMatchesDirectAssembly' -race -count=1 ./internal/regime ./internal/freqloop
run_tests 'TestAnalyzeKronBackendParity|TestBackendValidation|TestDefaultBackendMatchesExplicit' -race -count=1 ./internal/serve

echo "== workspace allocs (zero-alloc shuffle products and implicit-level cycles; workspace figure vs retained heap) =="
run_tests 'TestShuffleProductsAllocFree' -count=1 ./internal/kron
run_tests 'TestKronSolverAllocsDoNotScaleWithCycles|TestCoarsestFallbackAllocFree|TestWorkspaceBytesMatchesRetainedHeap' \
    -count=1 ./internal/multigrid

echo "== benchmark harness vet and unit tests (bench/ builds against the library) =="
# bench/ is its own module (replace cdrstoch => ../), so ./... above never
# compiles or vets it; this stage catches a library API change that
# breaks it.
(cd bench && go vet . && go test -short -count=1 .)

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
# event per point plus a terminal frame, and every frame is named by its
# event's kind (an iter frame carries an iter event); the stall case
# injects a delay fault at the multigrid.cycle seam and requires the
# watchdog to classify the solve stalled (with the job's trace ID on the
# verdict) within the configured window; the job finishes done once the
# delay ends. Two explicit DefaultSpec-family jobs must fit the default
# flight ring with nothing dropped, each job's trace running from its
# build span through one iter event per cycle to the multigrid span_end.
# Seeded like the chaos stage.
CDR_FAULTS_SEED=1 run_tests 'TestJobEventsSSE|TestJobEventsFramesNamedByKind|TestJobTraceHoldsWholeSolves|TestWatchdogStallInjection|TestDebugProgressLiveETA' \
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
