#!/usr/bin/env bash
# Runs every workload untraced with seeds 1..N, then traced once with seed 1,
# appending each result to a file that -compare reads:
#   bash bench/runall.sh A.jsonl [runs=10] [seconds=20]
set -euo pipefail
out="${1:?usage: bash bench/runall.sh OUT.jsonl [runs] [seconds]}"
runs="${2:-10}"
seconds="${3:-20}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads="point_read_mon_off point_read_mon_on adhoc_compile_mon_on oltp_mixed_mon_on"
for seed in $(seq 1 "$runs"); do
	for w in $workloads; do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" | tail -n 1
	done
done
for w in $workloads; do
	bash "$here/run.sh" --workload "$w" --seed 1 --seconds "$seconds" --trace 1 --out "$out" | tail -n 1
done
