#!/usr/bin/env bash
# Benchmark gate for a change, as the PR driver applies it: the repo
# benchmark (BENCHMARK.json, bench/) on the parent commit and on this
# tree, in alternating pairs so that drift of the host's speed hits both
# sides alike, then the verdict of `bench/run.sh -compare` (exit 1 when an
# end-to-end metric is worse than the parent's by more than its bound).
#
#   scripts/bench-gate.sh <parent-ref> [pairs=10] [seconds=20]
#
# The parent is checked out into a temporary directory with `git archive`
# and builds into its own .bench_build/; each side runs its own bench/.
# A pair is every workload once per side with seed = pair number, the side
# that goes first alternating; one traced run per side and workload
# follows for the per-layer metrics. Results: bench/out/gate-parent.jsonl
# and bench/out/gate-change.jsonl. Each pair also times the layer below the
# wire: the root package's in-process benchmarks with -benchmem on both
# sides, into bench/out/gate-inproc-{parent,change}.txt, summarized as each
# benchmark's median ns/op and B/op per side. Ten pairs of 20 s take about
# 40 minutes.
set -euo pipefail
ref="${1:?usage: scripts/bench-gate.sh <parent-ref> [pairs] [seconds]}"
pairs="${2:-10}"
seconds="${3:-20}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'chmod -R u+w "$tmp" 2>/dev/null; rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"

mkdir -p "$root/bench/out"
parent_out="$root/bench/out/gate-parent.jsonl"
change_out="$root/bench/out/gate-change.jsonl"
rm -f "$parent_out" "$change_out" "$root"/bench/out/gate-inproc-{parent,change}.txt
# The in-process benchmarks read bench/rules/bench.rules by relative path:
# each side's test binary runs from that side's root.
inproc='^(BenchmarkMonitoredPointRead|BenchmarkAdhocRange|BenchmarkPointUpdate|BenchmarkTxnInsert|BenchmarkWirePointRead)$'
(cd "$tmp/parent" && go test -c -o "$tmp/parent.test" .)
(cd "$root" && go test -c -o "$tmp/change.test" .)

# run <side> <workload> <seed> <trace>; a run whose output checks fail is
# reported at the end, after the comparison.
status=0
run() {
	local dir="$root" out="$change_out"
	if [ "$1" = parent ]; then
		dir="$tmp/parent" out="$parent_out"
	fi
	printf '%-6s %-21s ' "$1" "$2"
	bash "$dir/bench/run.sh" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4" --out "$out" | tail -n 1 | cut -c1-120 || status=1
}

# inproc_run <side>: one pass of the in-process benchmarks.
inproc_run() {
	local dir="$root"
	if [ "$1" = parent ]; then
		dir="$tmp/parent"
	fi
	printf '%-6s %-21s\n' "$1" in-process
	(cd "$dir" && "$tmp/$1.test" -test.run '^$' -test.bench "$inproc" -test.benchmem) >>"$root/bench/out/gate-inproc-$1.txt" || status=1
}

# inproc_median <side>: each benchmark's median ns/op and B/op.
inproc_median() {
	local f="$root/bench/out/gate-inproc-$1.txt" name
	for name in $(awk '/^Benchmark/ {print $1}' "$f" | sort -u); do
		printf '%-6s %-40s' "$1" "$name"
		for unit in ns/op B/op; do
			awk -v n="$name" -v u="$unit" '$1 == n { for (i = 3; i <= NF; i++) if ($i == u) print $(i-1) }' "$f" |
				sort -g | awk -v u="$unit" '{ v[NR] = $1 } END { printf " %12s %s", v[int((NR + 1) / 2)], u }'
		done
		echo
	done
}

workloads="point_read_mon_off point_read_mon_on adhoc_compile_mon_on oltp_mixed_mon_on"
for pair in $(seq 1 "$pairs"); do
	first=parent second=change
	if [ $((pair % 2)) -eq 0 ]; then
		first=change second=parent
	fi
	for w in $workloads; do
		run "$first" "$w" "$pair" 0
		run "$second" "$w" "$pair" 0
	done
	inproc_run "$first"
	inproc_run "$second"
done
for w in $workloads; do
	run parent "$w" 1 1
	run change "$w" 1 1
done
echo "in-process medians over $pairs pairs:"
inproc_median parent
inproc_median change
bash "$root/bench/run.sh" -compare "$parent_out" "$change_out" || status=1
exit "$status"
