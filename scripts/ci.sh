#!/usr/bin/env bash
# CI gate: build, lint, the functional test tier, then the race tier.
# The race tier re-runs every test under the race detector; the
# concurrency tests in internal/lat, internal/rules, internal/monitor and
# internal/event are written to surface latching and published-state bugs
# only -race can see. The chaos tier exercises the fail-safe layer
# (panic quarantine, outbox retry/shedding, torn PersistLAT snapshots)
# under fault injection. A short fuzz smoke runs the six targets of
# `make fuzz`.
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...

# Lint tier: go vet, the in-repo analyzers (`sqlcm-vet -analyzers` lists
# them: hotpath — no clock reads on the hot path; guardedby —
# //sqlcm:guards field access; cowpublish — //sqlcm:cow publish checking;
# lockorder — the //sqlcm:lock hierarchy: order down every call chain,
# in this package or another, unlock balance, sends under latches, calls
# through interfaces or function values under latches, unclassed
# mutexes; each is the sole catcher of some bug in the mutation tier
# below, and lockorder is the only lock-order enforcer), the check
# that every //sqlcm: directive is a known verb, rule-set static
# analysis, and pinned staticcheck
# (offline-tolerant; see scripts/staticcheck.sh). docs/lock-order.md must
# be current relative to the annotations. All hard gates, shared with the
# local workflow via `make vet`; vet-bench additionally fails the build
# if the whole-tree analysis run blows its 30-second latency budget.
# gofmt must have nothing to rewrite anywhere in the tree.
make vet
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt -l lists unformatted files:" >&2
  echo "$unformatted" >&2
  exit 1
fi
make vet-bench
./scripts/staticcheck.sh
go test ./...
go test -race ./...
# One plan per statement text: the double insert this guards against showed
# up as a second signature computation about once in twenty runs.
go test -race -count=50 -run TestWireSigCacheExactlyOnce ./internal/server
# Writers prune the chains they wrote under their own X lock while snapshot
# readers walk them; CREATE INDEX publishes the index set under point SELECTs.
go test -race -count=20 -run 'TestSnapshotReadsSurviveWriteTimePrune|TestCreateIndexRacesPointSelects' ./internal/engine
go test -race -run 'TestChaos|TestEviction' -count=1 ./internal/core/
# The outlier rule compares wall times: its test failed in loaded runs
# while the outlier cost only a few baseline calls. Twenty runs keep it
# honest now that the outlier reads 20 000x the baseline's rows.
go test -count=20 -run TestExample1OutlierDetection ./internal/core
go test -race -count=1 ./internal/faults/ ./internal/outbox/

# Serve-smoke tier: a short open-loop load run against the in-process
# network front-end under -race. Gates on nonzero throughput, zero
# statement errors, and a clean graceful drain (see internal/loadgen).
go test -race -count=1 -run TestServeSmoke ./internal/loadgen/

# MVCC smoke tier: read-mostly Zipf load with monitoring on — a reader
# fleet plus one hot writer — under -race. Gates on zero statement errors
# and on snapshot readers never surfacing as Query.Blocked events.
go test -race -count=1 -run TestMVCCSmoke ./internal/loadgen/

# Netchaos tier: the same harness through the fault-injecting listener
# (internal/faults/netfaults), 30% toxic connections — latency, bandwidth
# caps, partial writes, slow-loris reads, mid-frame resets, blackholes —
# under -race. Gates on zero protocol-corruption errors on surviving
# connections, a clean drain within budget, and no leaked goroutines.
go test -race -count=1 -run TestNetChaos ./internal/loadgen/

# Sim tier: the deterministic simulation harness. Seeded workloads replay
# through the real monitoring stack and a naive sequential oracle in
# lockstep; every journal entry and every LAT cell must match after every
# event, across 64 seeds and all three workload profiles. Includes the
# golden trace replays (pinned run fingerprints), the acceptance check
# that an injected aggregate fault is caught and shrunk to a tiny witness,
# and the MVCC checks at the same 64 seeds: the differential visibility
# oracle, and the single-session run compared with the frozen 2PL
# reference (testdata/invariance_2pl.golden). `make sim-mvcc` runs just
# those.
SQLCM_SIM_SEEDS=64 go test -count=1 ./internal/sim/

# The two benchmarks version GC is sized by, one iteration each so they
# cannot rot: a pass over a large table with few written chains, and the
# autocommit loader (127 000 writer commits).
go test -run '^$' -bench 'BenchmarkPruneSparse$' -benchtime=1x ./internal/storage
go test -run '^$' -bench 'BenchmarkSetupAutocommit$' -benchtime=1x ./internal/workload
# The LAT and signature-cache micro-benchmarks the one-latch LAT was sized
# by (DESIGN.md §5.1), the in-process monitored point read the
# allocation-free rule dispatch was sized by (§5), the ad-hoc range
# SELECT and prepared point UPDATE the per-template plans, operator trees
# and compiled writes were sized by (§5.4), and the loopback point read the
# allocation-free wire codec was sized by (§10), likewise one iteration each.
go test -run '^$' -bench 'BenchmarkLATConcurrent1$|BenchmarkLATObserveParallel|BenchmarkLATEvictionBounded100$|BenchmarkSigCacheParallel$|BenchmarkMonitoredPointRead|BenchmarkAdhocRange|BenchmarkPointUpdate|BenchmarkWirePointRead' -benchtime=1x .

# Benchmark module: bench/ is its own module (sqlcm/bench), so the root
# `go build ./...` and `go test ./...` never see it; an internal API change
# that breaks the repo benchmark must fail here, not in the driver.
(cd bench && go vet ./... && go test ./...)

# Coverage floors: internal/lat and internal/rules may not drop below the
# percentages recorded when the differential oracle was introduced.
./scripts/coverfloor.sh

# Fuzz smoke (one -fuzz target per invocation), the same six targets as
# `make fuzz`: the plan-cache template key (texts with one key parse to
# one statement), the value encoding round trip, the placeholder
# substitution scanner, rule conditions against WHERE clauses on NULL-free
# input (the one expression compiler's differential check), the
# wire-protocol frame parser, and arbitrary frames served by a live
# connection through every message handler.
go test -run='^$' -fuzz=FuzzTemplateKey -fuzztime=30s ./internal/sqlparser/
go test -run='^$' -fuzz=FuzzValueRoundTrip -fuzztime=30s ./internal/sqltypes/
go test -run='^$' -fuzz=FuzzSubstitute -fuzztime=30s ./internal/rules/
go test -run='^$' -fuzz=FuzzCondVsWhere -fuzztime=30s ./internal/rules/
go test -run='^$' -fuzz=FuzzProtoFrame -fuzztime=30s ./internal/server/
go test -run='^$' -fuzz=FuzzServeMessages -fuzztime=30s ./internal/server/

# Mutation tier (`make mutate`, scripts/mutate.sh) is not run here: it
# applies every internal/analysis/testdata/mutations/*.patch to a fresh
# copy of the tree and runs each one through vet, sqlcm-vet -code, test,
# race, sim and chaos — about 100 minutes for the 37 patches on a 2-CPU
# host. Run it when an analyzer, a directive or a runtime tier
# changes; its table is DESIGN.md §12, and its last line names any
# analyzer that is the sole catcher of no row.
