#!/usr/bin/env bash
# CI gate: every tier of the Makefile (each target's comment says what it
# guards), plus the gofmt check and the few steps only CI runs. The
# mutation tier (`make mutate`) is not run here: about 100 minutes for the
# 37 patches on a 2-CPU host. Run it when an analyzer, a directive or a
# runtime tier changes; its table is DESIGN.md §12.
set -euo pipefail
cd "$(dirname "$0")/.."

# gofmt must have nothing to rewrite anywhere in the tree.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt -l lists unformatted files:" >&2
  echo "$unformatted" >&2
  exit 1
fi

make build lint test race chaos serve-smoke mvcc-smoke netchaos sim bench-check cover fuzz

# The outlier rule compares wall times: its test failed in loaded runs
# while the outlier cost only a few baseline calls. Twenty runs keep it
# honest now that the outlier reads 20 000x the baseline's rows.
go test -count=20 -run TestExample1OutlierDetection ./internal/core

# The two benchmarks version GC is sized by, one iteration each so they
# cannot rot: a pass over a large table with few written chains, and the
# autocommit loader (127 000 writer commits).
go test -run '^$' -bench 'BenchmarkPruneSparse$' -benchtime=1x ./internal/storage
go test -run '^$' -bench 'BenchmarkSetupAutocommit$' -benchtime=1x ./internal/workload
# The LAT and signature-cache micro-benchmarks the one-latch LAT was sized
# by (DESIGN.md §5.1), the in-process monitored point read the
# allocation-free rule dispatch was sized by (§5), the ad-hoc range
# SELECT and prepared point UPDATE the per-template plans, operator trees
# and compiled writes were sized by (§5.4), the prepared INSERT in an open
# transaction the per-statement write path was sized by (§5.3), the
# loopback point read the allocation-free wire codec was sized by (§10),
# and the plain and aging LAT inserts the one aggregate fold was sized by
# (§5.1), likewise one iteration each.
go test -run '^$' -bench 'BenchmarkLATConcurrent1$|BenchmarkLATObserveParallel|BenchmarkLATEvictionBounded100$|BenchmarkSigCacheParallel$|BenchmarkMonitoredPointRead|BenchmarkAdhocRange|BenchmarkPointUpdate|BenchmarkTxnInsert|BenchmarkWirePointRead|BenchmarkPlainAggregates$|BenchmarkAgingAggregates$' -benchtime=1x .
# Strict registration of the 1000-rule session, once: a Strict check that
# re-analyses the whole live set per rule makes it quadratic (DESIGN.md §6).
go test -run '^$' -bench 'BenchmarkStrictRegistration$' -benchtime=1x ./internal/core
