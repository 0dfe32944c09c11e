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
# and bench/out/gate-change.jsonl. Ten pairs of 20 s take about 40 minutes.
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
rm -f "$parent_out" "$change_out"

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
done
for w in $workloads; do
	run parent "$w" 1 1
	run change "$w" 1 1
done
bash "$root/bench/run.sh" -compare "$parent_out" "$change_out" || status=1
exit "$status"
