#!/usr/bin/env sh
# bench.sh — run the evaluator benchmark suite and record the results.
#
# Runs the evaluator-level benchmarks (the paper queries E3–E7 and
# Queries II.1/III.1 at 1/10/100× (BenchmarkPaperQueryScaling), the
# P9 path-pipeline fixtures, the P10 indexed-descendant fixtures, the
# P11 early-exit/FLWOR cursor fixtures, the P12 copy-on-write
# update fixtures, the P13 durable (write-ahead log) update fixtures,
# the P14 morsel-parallel scan fixtures at 1/2/4/GOMAXPROCS workers,
# the P15 cold-open fixtures and the P16 cost-based plan-choice
# fixtures) with -count repetitions, prints the raw `go test -bench`
# output, and writes per benchmark the median ns/op with its quartiles
# (ns_q1, ns_q3) and the median B/op and allocs/op to a JSON file, so
# the perf trajectory is diffable in git and a regression can be told
# apart from run-to-run noise. "_meta" records the Go version, the run
# count, GOMAXPROCS (the -N suffix go test gives benchmark names) and
# the host's online CPU count (nproc), so a change of machine is
# visible too.
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

# The full set at -count 5 runs longer than go test's default 10m
# timeout, so the timeout is raised; tee hides go test's exit status,
# so a failed or timed-out run is caught from its output instead of
# being recorded as a partial trajectory.
go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" -timeout 2h . | tee "$TMP"
if grep -q '^FAIL\|^panic:' "$TMP"; then
	echo "bench.sh: benchmarks failed; $OUT not written" >&2
	exit 1
fi

GOVER=$(go version | awk '{print $3}')
NPROC=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
awk -v count="$COUNT" -v gover="$GOVER" -v nproc="$NPROC" '
# quantile returns the p-quantile (linear interpolation between order
# statistics) of the k sorted values v[name, 1..k].
function quantile(name, k, p,    h, lo) {
	h = 1 + (k - 1) * p
	lo = int(h)
	if (lo >= k) return v[name, k]
	return v[name, lo] + (h - lo) * (v[name, lo + 1] - v[name, lo])
}
# sortrun sorts the k values a[name, 1..k] ascending into v.
function sortrun(a, name, k,    i, j, x) {
	for (i = 1; i <= k; i++) {
		x = a[name, i] + 0
		for (j = i - 1; j >= 1 && v[name, j] > x; j--) v[name, j + 1] = v[name, j]
		v[name, j + 1] = x
	}
}
/^Benchmark/ {
	name = $1
	if (match(name, /-[0-9]+$/)) {
		procs = substr(name, RSTART + 1)
		name = substr(name, 1, RSTART - 1)
	}
	ns = ""; bytes = 0; allocs = 0
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i-1)
		if ($i == "B/op") bytes = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
	}
	if (ns == "") next
	if (!(name in runs)) order[++n] = name
	k = ++runs[name]
	nsv[name, k] = ns; bv[name, k] = bytes; av[name, k] = allocs
}
END {
	printf "{\n"
	printf "  \"_meta\": {\"go\": \"%s\", \"count\": %d, \"stat\": \"median\", \"spread\": \"ns_q1..ns_q3\", \"gomaxprocs\": %d, \"nproc\": %d},\n", gover, count, procs, nproc
	for (i = 1; i <= n; i++) {
		nm = order[i]; k = runs[nm]
		sortrun(nsv, nm, k); q1 = quantile(nm, k, 0.25); med = quantile(nm, k, 0.5); q3 = quantile(nm, k, 0.75)
		sortrun(bv, nm, k); mb = quantile(nm, k, 0.5)
		sortrun(av, nm, k); ma = quantile(nm, k, 0.5)
		printf "  \"%s\": {\"ns_per_op\": %.0f, \"ns_q1\": %.0f, \"ns_q3\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f}%s\n", \
			nm, med, q1, q3, mb, ma, (i < n ? "," : "")
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
