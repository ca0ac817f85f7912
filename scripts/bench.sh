#!/usr/bin/env sh
# bench.sh — run the evaluator benchmark suite and record the results.
#
# Runs the evaluator-level benchmarks (the paper queries E3–E7 and
# Queries II.1/III.1 at 1/10/100× (BenchmarkPaperQueryScaling), the
# P9 path-pipeline fixtures, the P10 indexed-descendant fixtures, the
# P11 early-exit/FLWOR cursor fixtures, the P12 copy-on-write
# update fixtures, the P13 durable-update fixtures, WAL vs
# write-through, the P14 morsel-parallel scan fixtures at
# 1/2/4/GOMAXPROCS workers, and the P16 cost-based plan-choice
# fixtures) with -count repetitions, prints the raw
# `go test -bench` output, and writes the best (minimum ns/op) run per
# benchmark to a JSON file so the perf trajectory is diffable in git.
#
# Usage:
#   scripts/bench.sh [-count N] [-bench REGEX] [-out FILE]
#
# Defaults: -count 5, the evaluator benchmark set, -out BENCH_eval.json.
set -eu

COUNT=5
BENCH='BenchmarkOpenCold|BenchmarkOpenFirstQuery|BenchmarkQuery|BenchmarkPaperQueryScaling|BenchmarkPathPipeline|BenchmarkExample1AnalyzeString|BenchmarkIndexedDescendant|BenchmarkEarlyExit|BenchmarkFLWORJoin|BenchmarkUpdateSmallEdit|BenchmarkUpdateLargestHier|BenchmarkUpdateReparse|BenchmarkUpdateExpression|BenchmarkUpdateDurable|BenchmarkParallelScan|BenchmarkPlanChoice'
OUT=BENCH_eval.json
while [ $# -gt 0 ]; do
	case "$1" in
	-count) COUNT=$2; shift 2 ;;
	-bench) BENCH=$2; shift 2 ;;
	-out) OUT=$2; shift 2 ;;
	*) echo "usage: $0 [-count N] [-bench REGEX] [-out FILE]" >&2; exit 2 ;;
	esac
done

cd "$(dirname "$0")/.."
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" . | tee "$TMP"

GOVER=$(go version | awk '{print $3}')
awk -v count="$COUNT" -v gover="$GOVER" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; bytes = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i-1)
		if ($i == "B/op") bytes = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
	}
	if (ns == "") next
	if (!(name in minns) || ns + 0 < minns[name] + 0) {
		minns[name] = ns; mb[name] = bytes; ma[name] = allocs
	}
	if (!(name in seen)) { seen[name] = 1; order[++n] = name }
}
END {
	printf "{\n"
	printf "  \"_meta\": {\"go\": \"%s\", \"count\": %d, \"stat\": \"min\"},\n", gover, count
	for (i = 1; i <= n; i++) {
		nm = order[i]
		printf "  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			nm, minns[nm], (mb[nm] == "" ? 0 : mb[nm]), (ma[nm] == "" ? 0 : ma[nm]), (i < n ? "," : "")
	}
	printf "}\n"
}' "$TMP" >"$OUT"

# Engine-health numbers next to the latency numbers: a fixed query
# burst (scripts/metricsprobe) reports plan/compile cache hit rates and
# name-index build counts from the metrics registry, merged into the
# JSON under "_metrics" so cache regressions are diffable in git too.
METRICS=$(go run ./scripts/metricsprobe)
awk -v metrics="$METRICS" 'NR == 1 { print; printf "  \"_metrics\": %s,\n", metrics; next } { print }' \
	"$OUT" >"$TMP" && cp "$TMP" "$OUT"

echo "wrote $OUT"
