#!/bin/sh
# bench.sh — snapshot the performance-tracking benchmarks into BENCH_<n>.json
# so the perf trajectory is recorded across PRs.
#
# The micro benchmarks need real iteration counts for stable numbers; the
# table benchmark runs seconds per iteration, so it gets a fixed 3x.
#
# Usage: scripts/bench.sh [n]
#   n  snapshot number (default: 1 + highest existing BENCH_*.json)
set -eu
cd "$(dirname "$0")/.."

n="${1:-}"
if [ -z "$n" ]; then
	last=$(ls BENCH_*.json 2>/dev/null | sed 's/BENCH_\([0-9]*\)\.json/\1/' | sort -n | tail -1)
	n=$((${last:-0} + 1))
fi
out="BENCH_$n.json"

micro='BenchmarkForestTrain$|BenchmarkForestPredictBatch$|BenchmarkForestPredictBatchObs$|BenchmarkWindowExtraction$|BenchmarkDTW$|BenchmarkDTWAligner$|BenchmarkDTWCascade$'
raw=$(go test -run '^$' -bench "$micro" -benchmem -benchtime 2s .
	go test -run '^$' -bench 'BenchmarkCheckpointWrite$|BenchmarkCheckpointRestore$' -benchmem -benchtime 2s ./internal/stream
	go test -run '^$' -bench 'BenchmarkObs' -benchmem -benchtime 1s ./internal/obs
	go test -run '^$' -bench '^BenchmarkQueue' -benchmem -benchtime 2s ./internal/sim
	go test -run '^$' -bench 'BenchmarkNetworkStep$' -benchmem -benchtime 2s ./internal/lte/network
	go test -run '^$' -bench 'BenchmarkCapture60s$|BenchmarkCapture60sObs$|BenchmarkDefendedCapture60s$|BenchmarkStream60s$' -benchmem -benchtime 5x .
	go test -run '^$' -bench 'BenchmarkFabric128Cells$' -benchmem -benchtime 5x .
	go test -run '^$' -bench 'BenchmarkCapture60sPop10k$' -benchmem -benchtime 1x .
	go test -run '^$' -bench 'BenchmarkFabric128CellsPop1k$' -benchmem -benchtime 5x .
	go test -run '^$' -bench 'BenchmarkSweep256Users$|BenchmarkSweepBrute256Users$' -benchmem -benchtime 3x .
	# 1x, not 3x: go's N=1 probe run before an Nx measurement would warm
	# the artifact store's memory tier, so only a single-iteration run
	# measures the cold cost (BenchmarkParetoSweep below has the same
	# constraint).
	go test -run '^$' -bench 'BenchmarkTableIII$' -benchmem -benchtime 1x .
	go test -run '^$' -bench 'BenchmarkParetoSweep$' -benchmem -benchtime 1x .
	# Cold-then-warm pass: the *Warm variants populate a disk artifact
	# store once (untimed), then measure the same experiment served
	# entirely from the persistent tier. Their speedup against the cold
	# rows above is the artifact store's contribution.
	go test -run '^$' -bench 'BenchmarkTableIIIWarm$|BenchmarkParetoSweepWarm$' -benchmem -benchtime 1x .)
echo "$raw"

# One JSON object per benchmark line; go's -bench output is stable enough
# for this awk to stay dependency-free.
echo "$raw" | awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN { print "{"; printf "  \"date\": \"%s\",\n  \"benchmarks\": [\n", date; n = 0 }
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	nsop = ""; bop = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($(i+1) == "ns/op") nsop = $i
		if ($(i+1) == "B/op") bop = $i
		if ($(i+1) == "allocs/op") allocs = $i
	}
	if (nsop == "") next
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"ns_per_op\": %s", name, nsop
	if (bop != "") printf ", \"bytes_per_op\": %s", bop
	if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
	printf "}"
}
END { print "\n  ]\n}" }
' >"$out"
echo "wrote $out"

# Delta report: compare against the previous snapshot (highest BENCH_<m>
# with m < n) so each PR's perf movement is visible at a glance. Any
# benchmark that got more than 1.5x slower is flagged as a REGRESSION —
# benchtime-x table benchmarks jitter, but not by that much.
prev=$(ls BENCH_*.json 2>/dev/null | sed 's/BENCH_\([0-9]*\)\.json/\1/' | sort -n | awk -v n="$n" '$1 < n' | tail -1)
if [ -n "$prev" ]; then
	echo ""
	echo "delta vs BENCH_$prev.json (speedup = old/new ns/op):"
	awk '
	function field(line, key,   v) {
		if (line !~ "\"" key "\"") return ""
		v = line
		sub(".*\"" key "\": ", "", v)
		sub(/[,}].*/, "", v)
		gsub(/"/, "", v)
		return v
	}
	FNR == NR {
		name = field($0, "name")
		if (name != "") { ons[name] = field($0, "ns_per_op"); oal[name] = field($0, "allocs_per_op") }
		next
	}
	{
		name = field($0, "name")
		if (name == "") next
		ns = field($0, "ns_per_op"); al = field($0, "allocs_per_op")
		if (!header++) printf "%-34s %15s %15s %9s %13s %13s\n", "benchmark", "old ns/op", "new ns/op", "speedup", "old allocs", "new allocs"
		if (name in ons && ons[name] + 0 > 0 && ns + 0 > 0) {
			spd = ons[name] / ns
			flag = ""
			if (spd < 1 / 1.5) { flag = "  REGRESSION"; regress++ }
			printf "%-34s %15.0f %15.0f %8.2fx %13s %13s%s\n", name, ons[name], ns, spd, oal[name], al, flag
		} else
			printf "%-34s %15s %15.0f %9s %13s %13s\n", name, (name in ons ? ons[name] : "new"), ns, "-", (name in oal ? oal[name] : "-"), al
	}
	END {
		if (regress) printf "WARNING: %d benchmark(s) regressed by more than 1.5x\n", regress
	}
	' "BENCH_$prev.json" "$out"
fi

# Cold vs warm: how much of each cached experiment the artifact store
# serves back. Both numbers come from this snapshot, so the ratio is
# machine-independent.
echo ""
echo "artifact store, cold vs warm (this snapshot):"
awk '
function field(line, key,   v) {
	if (line !~ "\"" key "\"") return ""
	v = line
	sub(".*\"" key "\": ", "", v)
	sub(/[,}].*/, "", v)
	gsub(/"/, "", v)
	return v
}
{
	name = field($0, "name")
	if (name != "") ns[name] = field($0, "ns_per_op")
}
END {
	printf "%-24s %15s %15s %9s\n", "experiment", "cold ns/op", "warm ns/op", "speedup"
	pair["BenchmarkTableIII"] = "BenchmarkTableIIIWarm"
	pair["BenchmarkParetoSweep"] = "BenchmarkParetoSweepWarm"
	for (cold in pair) {
		warm = pair[cold]
		if (cold in ns && warm in ns && ns[warm] + 0 > 0)
			printf "%-24s %15.0f %15.0f %8.1fx\n", substr(cold, 10), ns[cold], ns[warm], ns[cold] / ns[warm]
	}
}
' "$out"
