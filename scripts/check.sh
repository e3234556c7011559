#!/bin/sh
# check.sh — the repository's gate: gofmt, vet, build, and the full test
# suite under the race detector. The forest trainer, batch prediction, and
# the experiment runners are all concurrent, so -race is not optional here.
#
# Usage: scripts/check.sh [-short]
#   -short  skip the multi-second Quick-scale golden tests
set -eu
cd "$(dirname "$0")/.."

short=""
if [ "${1:-}" = "-short" ]; then
	short="-short"
fi

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting (run gofmt -w):"
	echo "$unformatted"
	exit 1
fi
# A report, not a gate: the non-test Go line count of the program module
# and of the benchmark module, counted the same way on every change.
echo "== non-test Go lines"
program=$(find . -path ./bench -prune -o -path ./.bench_build -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)
bench=$(find bench -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)
echo "program $program, bench $bench, total $((program + bench))"
echo "== go vet ./..."
go vet ./...
# The e2e tests and their subprocess harness build only under the e2e
# tag, which plain go vet ./... does not set.
echo "== go vet -tags e2e ./e2e"
go vet -tags e2e ./e2e
echo "== go build ./..."
go build ./...
# The benchmark harness is its own module that calls the program's API; a
# change that breaks it fails here instead of in a benchmark run.
echo "== go build -C bench ./..."
go build -C bench ./...
echo "== go vet -C bench ./..."
go vet -C bench ./...
# The streaming pipeline hands every source slice between two goroutines
# (a producer and the caller's consumer) over a bounded channel, with
# record slices recycled back, cancellation and panic recovery on both
# sides; gate it explicitly so a filtered full-suite run can never skip it.
echo "== go test -race ./internal/stream/..."
go test -race ./internal/stream/...
# internal/par is the one fan-out loop behind the experiment runners, the
# forest trainer, batch prediction, campaign collection, the contact
# sweep, the multi-cell fabric's blocks and the daemon's captures; gate its
# own tests under the detector explicitly.
echo "== go test -race ./internal/par/..."
go test -race ./internal/par/...
# The contact sweep shards all-pairs DTW across worker goroutines, each
# keeping its own aligner and shard while par's counter hands out rows;
# gate it under -race explicitly for the same reason.
# A forest Trainer keeps one grower per par.Workers worker index across
# Train calls, so the growers' reuse is concurrent state; gate the
# bit-identity of reused, parallel and golden training under the detector.
echo "== go test -race -run 'TestGoldenTrees|TestWorkersDoNotChangeTrees|TestTrainerReuseMatchesFresh' ./internal/ml/forest"
go test -race -run 'TestGoldenTrees|TestWorkersDoNotChangeTrees|TestTrainerReuseMatchesFresh' ./internal/ml/forest
echo "== go test -race ./internal/attack/correlation/..."
go test -race ./internal/attack/correlation/...
# The multi-cell fabric hands each block's shards to par.Workers and joins
# them before applying cross-shard mail; its worker-count-invariance test
# is only meaningful when the race detector watches the parallel path.
echo "== go test -race ./internal/lte/network/..."
go test -race ./internal/lte/network/...
# The population capture path crosses the O(active) scheduler, the
# inactivity and refresh deadlines on each cell's event queue, lazy channel
# accrual, and sparse background churn; gate the pinned scheduler-scenario
# digests explicitly under the detector (the population fabric invariance
# test is covered by the network gate above).
echo "== go test -race -run 'TestSchedulerScenarioDigests' ./internal/capture"
go test -race -run 'TestSchedulerScenarioDigests' ./internal/capture
# The daemon supervises one goroutine per capture, each checkpointing
# and restarting the two-goroutine pipeline; gate a full checkpoint-restore
# cycle under -race explicitly so the byte-identical-convergence
# guarantee is always exercised with the detector on.
echo "== go test -race -run 'TestDaemonCheckpointRestartConvergence' ./internal/daemon"
go test -race -run 'TestDaemonCheckpointRestartConvergence' ./internal/daemon
# The defense no-op contract spans all three capture paths (batch,
# fabric, stream); gate it explicitly under the detector so the
# zero-Defense byte-identity can never be filtered out of a run.
echo "== go test -race -run 'TestDefensesOffByteIdentical' ."
go test -race -run 'TestDefensesOffByteIdentical' .
# The artifact store's two contracts: concurrent processes sharing a
# cache directory never observe torn entries, and a warm run served from
# disk renders byte-identically to the cold run that populated it (with
# corrupted entries recomputed, never trusted). Both race-gated
# explicitly — the differential test skips under -short, so the full
# suite below would miss it on a -short run.
echo "== go test -race -run 'TestConcurrentSharedDir' ./internal/artifact"
go test -race -run 'TestConcurrentSharedDir' ./internal/artifact
echo "== go test -race -run 'TestWarmRunByteIdenticalToCold' ./internal/experiments"
go test -race -run 'TestWarmRunByteIdenticalToCold' ./internal/experiments
# Metrics runs share the artifact store's singleflight with every other
# run, so concurrent metrics scopes meet inside it; gate the metrics
# observation-only contract (cold golden, then a warm rerun that computes
# nothing) under the detector explicitly — it skips under -short.
echo "== go test -race -run 'TestMetricsDoNotChangeOutput' ./internal/experiments"
go test -race -run 'TestMetricsDoNotChangeOutput' ./internal/experiments
echo "== go test -race $short ./..."
go test -race $short ./...
# The e2e harness drives the real binaries as subprocesses (goldens,
# SIGINT drain, kill -9 checkpoint restore). It builds only under the
# e2e tag; -short keeps it to the fast golden subset.
echo "== go test -tags e2e $short -count=1 ./e2e"
go test -tags e2e $short -count=1 ./e2e
echo "check: OK"
