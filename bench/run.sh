#!/usr/bin/env bash
# run.sh — build and run the repository benchmark (see bench/README.md).
#
# One run, as BENCHMARK.json's command:
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
# builds ltebench from source and runs it; its last output line is the
# run's JSON summary.
#
# Every workload:
#   bench/run.sh [-runs N] [-seconds S] [-sets K] [-trace]
# runs each workload N times per set (seeds 1..N, default 10), writes one
# result file per run under .bench_build/results/set<k>/, and prints each
# set's end-to-end metrics by name and unit as median and quartiles. With
# -sets 2 it then checks that neither set's medians are worse than the
# other's by more than BENCHMARK.json's bounds. -trace adds one traced run
# per workload, printing the per-layer metrics.
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C bench -o "$build/ltebench" ./cmd/ltebench

for arg in "$@"; do
	case $arg in
	--workload | -workload | --workload=* | -workload=*) exec "$build/ltebench" "$@" ;;
	esac
done

runs=10 seconds=10 sets=1 trace=0
while [ $# -gt 0 ]; do
	case $1 in
	-runs) runs=$2; shift 2 ;;
	-seconds) seconds=$2; shift 2 ;;
	-sets) sets=$2; shift 2 ;;
	-trace) trace=1; shift ;;
	*)
		echo "usage: bench/run.sh [-runs N] [-seconds S] [-sets K] [-trace]" >&2
		echo "       bench/run.sh --workload W --seed N --seconds S --trace 0|1" >&2
		exit 2
		;;
	esac
done
go build -C bench -o "$build/benchcmp" ./cmd/benchcmp
workloads="lab-cold lab-warm live-stream metro-pop"
results="$build/results"
rm -rf "$results"

n=1
while [ "$n" -le "$sets" ]; do
	seed=1
	while [ "$seed" -le "$runs" ]; do
		for w in $workloads; do
			"$build/ltebench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
				--out "$results/set$n/$w-$(printf %03d "$seed").json" | tail -n 1
		done
		seed=$((seed + 1))
	done
	echo "== set $n"
	"$build/benchcmp" "$results/set$n" || true
	n=$((n + 1))
done

status=0
if [ "$sets" -ge 2 ]; then
	# The sets agree when neither reads worse than the other by more than a
	# bound. A row whose spread is wider than its bound cannot show that
	# either way; it is named, not counted as disagreement.
	echo "== agreement: set 2 against set 1, then set 1 against set 2"
	cmp=$("$build/benchcmp" "$results/set1" "$results/set2"; "$build/benchcmp" "$results/set2" "$results/set1") || true
	echo "$cmp"
	if grep -q ' regressed$' <<<"$cmp"; then
		echo "sets DISAGREE"
		status=1
	else
		echo "sets agree on every median"
		{ grep ' unresolved$' <<<"$cmp" || true; } | awk '{print "  spread wider than its bound: " $1 " " $2}' | sort -u
	fi
fi

if [ "$trace" -eq 1 ]; then
	for w in $workloads; do
		echo "== $w traced"
		"$build/ltebench" --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
			--out "$results/trace/$w.json" | grep -v '^{'
	done
fi
exit "$status"
