#!/bin/sh
# verify.sh — the repo's full verification ladder in one shot.
#
#   tier 0: gofmt -l cleanliness + go vet ./... + the perfbench tracer builds
#   tier 1: go build ./... && go test ./...          (ROADMAP.md tier-1)
#   tier 2: go test -race <concurrent packages>      (ROADMAP.md tier-2)
#   fuzz smoke: 10 s of partition.FuzzRefineMatchesHeap
#   endpoint smoke: live /metrics + /debug/progress mid-run
#   serve smoke: topocmpd answers, dedups and observes end to end
#   bench smoke: one iteration of the kernel benchmarks
#   bench sentinel: benchdiff against the committed baselines
#
# Tier 2 runs the packages with real concurrency under the race
# detector: the ball engine's shared caches and batched distance path
# (ball.TestMSBFSRaceShort, ball.TestWideMSBFSRaceShort for multi-word
# strips), the suite fan-out, the pipeline's DAG scheduler, the result
# store, the observability layer's concurrent span/counter attachment
# and background time-series sampler (obs.TestConcurrentSpansAndCounters,
# obs.TestSamplerRaceShort), the pooled per-worker cut/flow
# kernels (partition.TestResilienceRaceShort,
# flow.TestSurfaceMaxFlowRaceShort), the pooled Brandes/distortion
# workspaces (metrics.TestBrandesRaceShort), the sigma-batched
# link-value sweeps leasing MSBFS workspaces from the shared pool
# (hierarchy.TestLinkValueRaceShort), and the serving layer's singleflight
# dedup, shared per-network ball engines and admission semaphore under
# mixed concurrent traffic at P=4 (serve.TestServeRaceShort).
set -eu

echo "== tier 0: gofmt cleanliness =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:"
    echo "$unformatted"
    exit 1
fi

echo "== tier 0: go vet =="
go vet ./...

echo "== tier 0: benchmark tracer vets and builds =="
# perfbench/tracer is a module of its own that calls the internal metric,
# ball, partition and hierarchy APIs directly; ./... above does not reach
# it, so an internal API change would otherwise break the benchmark
# silently. It builds offline (its only dependency is this module).
(cd perfbench/tracer && go vet ./... && go build -o /dev/null ./...)

echo "== tier 1: build + full test suite =="
go build ./...
go test ./...

echo "== tier 2: race detector on concurrent packages =="
# Race instrumentation on a single core pushes the experiments package
# (full metric suites per figure) well past go test's default 10m
# per-package timeout; give the tier an explicit ceiling instead.
go test -race -timeout 45m ./internal/core ./internal/ball ./internal/experiments \
    ./internal/cache ./internal/obs ./internal/partition ./internal/flow \
    ./internal/metrics ./internal/hierarchy ./internal/serve

echo "== fuzz smoke: gain-bucket FM refinement against the heap oracle =="
# Ten seconds of native fuzzing over small random weighted levels and
# whole bisections: the bucket queue must pop exactly what the historical
# lazy heap popped.
go test -run '^$' -fuzz '^FuzzRefineMatchesHeap$' -fuzztime 10s ./internal/partition

echo "== scale smoke: 1M-node streamed build + sampled expansion =="
# Builds a million-node PLRG through the streamed CSR path, checks the
# >= 4x build-overhead advantage over the map builder, and runs a sampled
# expansion with confidence bounds inside an explicit time/heap budget.
TOPOCMP_SCALE_SMOKE=1 go test -run '^TestScaleSmoke$' -timeout 10m .

echo "== endpoint smoke: /metrics + /debug/progress serve mid-run =="
# Builds the real reproduce binary, starts a -quick run with
# -http 127.0.0.1:0, and asserts the live plane answers while the
# pipeline is still executing: Prometheus text with histogram buckets,
# the progress DAG with a running stage, and /debug/pprof/.
TOPOCMP_ENDPOINT_SMOKE=1 go test -run '^TestEndpointSmoke$' -timeout 10m .

echo "== serve smoke: topocmpd answers, dedups and observes mid-run =="
# Builds the real topocmpd daemon, starts it on a kernel-chosen port, and
# asserts the serving layer end to end: a suite query answers, a duplicate
# fired while the first is in flight is served from the same execution
# (serve_dedup_hits_total moves), and /metrics + /debug/progress serve
# mid-run.
TOPOCMP_SERVE_SMOKE=1 go test -run '^TestServeSmoke$' -timeout 10m .

echo "== bench smoke: kernel benchmarks compile and run =="
# The root-package benchmarks rewrite their BENCH_*.json baselines as they
# run, so snapshot the committed baselines first — the sentinel below must
# compare fresh numbers against the tree's state, not against themselves.
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cp BENCH_*.json "$workdir"
bench_out="$workdir/bench.out"
# The cut/flow kernel rows (BENCH_kernels.json) include a PLRG hub-ball
# resilience curve, which coarsens through ~100 levels per ball, so a
# regression in the FM refinement queue shows up there first.
go test -run '^$' -bench 'BenchmarkKernel(Resilience|CutSize|SurfaceFlow)' \
    -benchtime 1x . > "$bench_out"
go test -run '^$' -bench 'BenchmarkMSBFS|BenchmarkWideMSBFS|BenchmarkBrandes|BenchmarkLinkValues|BenchmarkServe' \
    -benchtime 1x . >> "$bench_out"
# Scale benchmarks refresh BENCH_scale.json (map-vs-streamed peak memory
# and the size-vs-time/RSS trajectory; the full-RL pipeline row is skipped
# here to keep the smoke fast — run the full Scale suite to update it).
go test -run '^$' -bench 'BenchmarkScaleBuild|BenchmarkScaleTrajectory' \
    -benchtime 1x . >> "$bench_out"
cat "$bench_out"

echo "== bench sentinel: compare against committed baselines =="
# One -benchtime 1x iteration is noisy, so the default tolerances are
# loose (4x time, 1.5x + 64 allocs); the sentinel catches accidental
# order-of-magnitude regressions, not drift.
go run ./cmd/benchdiff -baseline "$workdir/BENCH_*.json" "$bench_out"

echo "verify.sh: all tiers passed"
