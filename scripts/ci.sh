#!/usr/bin/env bash
# CI gate: build, lint, the functional test tier, then the race tier.
# The race tier re-runs every test under the race detector; the
# concurrency tests in internal/lat, internal/rules, internal/monitor and
# internal/event are written to surface latching and published-state bugs
# only -race can see. The chaos tier exercises the fail-safe layer
# (panic quarantine, outbox retry/shedding, checkpoint crash-recovery)
# under fault injection. A short fuzz smoke hardens the placeholder
# substitution scanner.
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...

# Lint tier: go vet, the in-repo analyzers (hot-path hygiene, rule-callback
# recover discipline, context propagation, cancellation points, goroutine
# ownership, SQLSTATE single-sourcing, the data-protection suite
# (//sqlcm:guards field access, atomics-everywhere, //sqlcm:cow publish
# checking), and the //sqlcm:lock hierarchy suite (order, unlock balance,
# sends under latches, unclassed mutexes; cross-package edges included);
# `sqlcm-vet -analyzers` lists them), rule-set static
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
go test -race -count=1 ./internal/faults/ ./internal/outbox/

# Lockdep tier: the same chaos and concurrency suites with the runtime
# lock-order assertions compiled in. A single out-of-order acquisition
# anywhere in these runs panics with both acquisition stacks.
go test -tags sqlcmlockdep -race -count=1 ./internal/lockcheck/... ./internal/lat/ ./internal/rules/ ./internal/monitor/ ./internal/event/ ./internal/engine/ ./internal/server/
go test -tags sqlcmlockdep -race -run 'TestChaos|TestEviction' -count=1 ./internal/core/
go test -tags sqlcmlockdep -race -count=1 ./internal/faults/ ./internal/outbox/

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
# by (DESIGN.md §5.1), and the in-process monitored point read the
# allocation-free rule dispatch was sized by (§5), likewise one iteration each.
go test -run '^$' -bench 'BenchmarkLATConcurrent1$|BenchmarkLATObserveParallel|BenchmarkLATEvictionBounded100$|BenchmarkSigCacheParallel$|BenchmarkMonitoredPointRead' -benchtime=1x .

# Benchmark module: bench/ is its own module (sqlcm/bench), so the root
# `go build ./...` and `go test ./...` never see it; an internal API change
# that breaks the repo benchmark must fail here, not in the driver.
(cd bench && go vet ./... && go test ./...)

# Coverage floors: internal/lat and internal/rules may not drop below the
# percentages recorded when the differential oracle was introduced.
./scripts/coverfloor.sh

# Fuzz smoke (one -fuzz target per invocation): the placeholder
# substitution scanner, rule conditions against WHERE clauses on NULL-free
# input (the one expression compiler's differential check), and the
# wire-protocol frame parser.
go test -run='^$' -fuzz=FuzzSubstitute -fuzztime=30s ./internal/rules/
go test -run='^$' -fuzz=FuzzCondVsWhere -fuzztime=30s ./internal/rules/
go test -run='^$' -fuzz=FuzzProtoFrame -fuzztime=30s ./internal/server/
