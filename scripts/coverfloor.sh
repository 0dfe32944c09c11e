#!/usr/bin/env bash
# Coverage floor gate for the packages the differential oracle leans on.
# The simulation harness is only as strong as the unit coverage of the
# code it compares, so the floors pin the post-harness percentages:
# a PR that deletes tests (or adds untested branches wholesale) fails here
# before it can erode the oracle's foundation.
#
# Floors are set slightly below the measured values at the time the gate
# was introduced (lat 93.0%, rules 79.5%) to absorb formatting-level
# statement-count drift, not real regressions. The row store's floor is
# its measured coverage (95.9%) rounded down when the package became the
# MVCC store alone.
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A FLOOR=(
  [./internal/lat]=92.5
  [./internal/rules]=79.0
  [./internal/storage]=95
)

fail=0
for pkg in "${!FLOOR[@]}"; do
  profile=$(mktemp)
  go test -count=1 -coverprofile="$profile" "$pkg" >/dev/null
  pct=$(go tool cover -func="$profile" | awk '/^total:/ {gsub("%","",$3); print $3}')
  rm -f "$profile"
  floor=${FLOOR[$pkg]}
  if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
    echo "FAIL coverage floor: $pkg at ${pct}%, floor ${floor}%" >&2
    fail=1
  else
    echo "ok coverage floor: $pkg at ${pct}% (floor ${floor}%)"
  fi
done
exit $fail
