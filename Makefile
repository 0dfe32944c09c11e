GO ?= go

.PHONY: build vet lint test race chaos netchaos lockdoc fuzz bench bench-check bench-gate serve-smoke mvcc-smoke sim sim-long sim-mvcc cover mutate ci

build:
	$(GO) build ./...

# Vet tier: go vet plus SQLCM's own analyzers (sqlcm-vet -analyzers lists
# them) — no clock reads on the hot path (hotpath), guarded-field access
# (guardedby), copy-on-write publication (cowpublish) and the lock
# hierarchy (lockorder, the only lock-order check), plus a check that
# every //sqlcm: directive is a known verb, all over one type-checked
# load — and static analysis of the shipped rule sets (which must be
# finding-free even in strict mode). docs/lock-order.md must match the
# annotations. The whole-tree -code run has a 30-second latency budget
# (it currently takes a few) so it can live in precommit workflows; a
# loader regression that re-type-checks the standard library per package
# would blow it immediately.
vet:
	$(GO) vet ./...
	@start=$$(date +%s) && $(GO) run ./cmd/sqlcm-vet -code . && end=$$(date +%s) && \
	elapsed=$$((end-start)) && echo "sqlcm-vet -code . took $${elapsed}s (budget 30s)" && \
	test $$elapsed -le 30
	$(GO) run ./cmd/sqlcm-vet -lockdoc .
	$(GO) run ./cmd/sqlcm-vet -mode strict examples/rulesets

# Lint tier: staticcheck at a pinned version (offline fallback runs the
# in-repo analyzers instead), on top of the vet tier.
lint: vet
	./scripts/staticcheck.sh

test:
	$(GO) test ./...

# Race tier: the concurrency tests (LATs, copy-on-write rule index,
# signature cache, event bus) are only meaningful under -race. The
# repeated run guards the plan cache's single insert per statement text:
# when two connections could both store a plan for one text, the signature
# cache computed twice about once in twenty runs. The second repeated run
# is version GC on the write path against snapshot readers, the version
# store handing out pruned records again only after every reader that could
# hold them has finished, and CREATE INDEX publishing the index set under
# point SELECTs.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=50 -run TestWireSigCacheExactlyOnce ./internal/server
	$(GO) test -race -count=20 -run 'TestSnapshotReadsSurviveWriteTimePrune|TestVersionReuseWaitsForReaders|TestCreateIndexRacesPointSelects' ./internal/engine

# Chaos tier: fault-injection tests for the fail-safe layer (panic
# quarantine, outbox retry/backoff/shedding, torn PersistLAT snapshots,
# PersistLAT racing evictions, and every fault at once under load), run
# under -race because the faults race against live dispatch.
chaos:
	$(GO) test -race -run 'TestChaos|TestEviction' -count=1 ./internal/core/
	$(GO) test -race -count=1 ./internal/faults/ ./internal/outbox/

# Netchaos tier: the open-loop load harness driven through the
# fault-injecting listener (internal/faults/netfaults) under -race: 30%
# of connections get latency/bandwidth/partial-write/slow-loris/reset/
# blackhole toxics. Gates on zero protocol-corruption errors on surviving
# connections, a clean drain within budget, and no leaked goroutines.
netchaos:
	$(GO) test -race -count=1 -run TestNetChaos ./internal/loadgen/

# Regenerate docs/lock-order.md from the //sqlcm:lock annotations.
lockdoc:
	$(GO) run ./cmd/sqlcm-vet -lockdoc -write .

# Sim tier: the deterministic simulation harness replays seeded workloads
# through the real monitoring stack and a naive sequential oracle in
# lockstep, comparing every journal entry and every LAT cell after every
# event. 64 seeds across all three workload profiles, plus the golden
# trace replays and the fault-injection/shrinker acceptance tests.
sim:
	SQLCM_SIM_SEEDS=64 $(GO) test -count=1 ./internal/sim/

# Extended sweep for soak runs: more seeds, longer traces.
sim-long:
	SQLCM_SIM_SEEDS=256 SQLCM_SIM_EVENTS=1200 $(GO) test -count=1 -timeout 30m ./internal/sim/

# MVCC tier, for focused local runs (`make sim` already covers it): the
# differential visibility oracle (real version store vs a naive
# full-history recompute) over a 64-seed sweep, the golden traces with
# fingerprints pinned unchanged, and the single-session lock-schedule
# invariance check (results, rule journal and LAT contents identical to the
# frozen 2PL reference in internal/sim/testdata/invariance_2pl.golden).
sim-mvcc:
	SQLCM_SIM_SEEDS=64 $(GO) test -count=1 -run 'TestMVCCVisibilitySweep|TestGoldenReplayMVCC|TestSingleSessionMVCCInvariance' ./internal/sim/

# Mutation tier: every internal/analysis/testdata/mutations/*.patch seeds
# one bug of one analyzer's class into a real package of a `git archive`
# copy of REF (default HEAD), which then goes through vet, sqlcm-vet -code,
# test, race, sim and chaos; the table says which tier catches each bug
# first and whether its analyzer is the only catcher (DESIGN.md §12); a
# full run ends with a line naming any analyzer that is the only catcher
# of no row.
# About 100 minutes for the 37 patches on 2 CPUs: not part of `make ci`.
# make mutate [REF=<ref>]
mutate:
	./scripts/mutate.sh $(or $(REF),HEAD)

# Coverage floors for the packages the differential oracle leans on.
cover:
	./scripts/coverfloor.sh

# Fuzz smoke: harden the {ref} substitution scanner, the wire-protocol
# frame parser and the message handlers behind it, hold rule conditions and WHERE clauses to the same answer
# on NULL-free input, texts with one template key to one parse, every
# value to its own decode, the B+tree to a sorted model, and the INT/FLOAT
# order and its interval conversion to exact arithmetic. One -fuzz
# target per go test invocation.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzTemplateKey -fuzztime=30s ./internal/sqlparser/
	$(GO) test -run='^$$' -fuzz=FuzzValueRoundTrip -fuzztime=30s ./internal/sqltypes/
	$(GO) test -run='^$$' -fuzz=FuzzSubstitute -fuzztime=30s ./internal/rules/
	$(GO) test -run='^$$' -fuzz=FuzzCondVsWhere -fuzztime=30s ./internal/rules/
	$(GO) test -run='^$$' -fuzz=FuzzProtoFrame -fuzztime=30s ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzServeMessages -fuzztime=30s ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzBTree -fuzztime=30s ./internal/index/
	$(GO) test -run='^$$' -fuzz=FuzzNumericOrder -fuzztime=30s ./internal/sqltypes/

# internal/workload's benchmark is one 127 000-statement load per iteration,
# BenchmarkStrictRegistration one 1000-rule session.
bench:
	$(GO) test -run xxx -skip BenchmarkStrictRegistration -bench . -benchtime 1000x $$($(GO) list ./... | grep -v /internal/workload)
	$(GO) test -run xxx -bench . -benchtime 3x ./internal/workload
	$(GO) test -run xxx -bench BenchmarkStrictRegistration -benchtime 3x ./internal/core

# The repo benchmark (BENCHMARK.json) lives in its own module under bench/,
# which the root `go build ./...` does not see: vet and test it against
# this tree.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The driver's regression gate, locally: alternating parent/change pairs of
# the repo benchmark and the `-compare` verdict (about 40 minutes at the
# defaults). make bench-gate PARENT=<ref> [PAIRS=10] [SECS=20]
bench-gate:
	./scripts/bench-gate.sh $(or $(PARENT),HEAD) $(PAIRS) $(SECS)

# Loopback smoke tier: a short open-loop load run (internal/loadgen)
# against an in-process network front-end under -race — nonzero
# throughput, zero statement errors, clean graceful drain.
serve-smoke:
	$(GO) test -race -count=1 -run TestServeSmoke ./internal/loadgen/

# MVCC smoke tier: read-mostly Zipf load with monitoring on — a reader
# fleet plus one hot writer — under -race; snapshot readers must never
# surface as Query.Blocked events.
mvcc-smoke:
	$(GO) test -race -count=1 -run TestMVCCSmoke ./internal/loadgen/

ci:
	./scripts/ci.sh
