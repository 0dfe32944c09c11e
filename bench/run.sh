#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes stays in .bench_build/ of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$here" && go build -o "$build/sqlcm-bench" .)
cd "$root"
exec "$build/sqlcm-bench" "$@"
