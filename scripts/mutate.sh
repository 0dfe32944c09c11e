#!/usr/bin/env bash
# Mutation tier: does each source analyzer catch a bug that no other tier
# catches? Every patch under internal/analysis/testdata/mutations seeds one
# bug of one analyzer's class into a real package (<analyzer>-<n>.patch; the
# text above the diff says what it seeds; a patch named after no analyzer,
# such as rowlock-1, seeds a bug a runtime tier must catch). Each patch is
# applied to a fresh copy of the tree made with `git archive`, so the
# working tree is never touched, and the copy goes through the tiers in
# cost order:
#
#   vet      go vet ./...
#   analyzer sqlcm-vet -code . (which analyzers report, by name)
#   test     go test ./...        (minus the two tests that run sqlcm-vet
#   race     go test -race ./...   over the tree: they are the analyzer tier)
#   sim      make sim
#   chaos    make chaos
#
# The runtime tiers stop at the first one that fails twice in a row (one
# failure of a timing-sensitive test on a loaded host is not evidence).
# One table row per mutation: the analyzers that report it, the first
# other tier that catches it (with the first failure line as evidence),
# and whether the patch's own analyzer is its sole catcher. A first row
# runs the unmutated tree through every tier: if that fails, no row below
# it means anything. A full run ends with the keep rule's verdict: the
# analyzers `sqlcm-vet -analyzers` lists that are the sole catcher of no
# row, or "none" (DESIGN.md §12 keeps an analyzer only while it is the
# sole catcher of some seeded bug).
#
#   scripts/mutate.sh [ref=HEAD] [mutation ...]     (or: make mutate)
#
# The 37 patches take about 100 minutes on a 2-CPU host: a mutation caught
# by go test stops there (ten minutes when it hangs a test into the
# timeout twice), one only an analyzer catches runs every tier. CI does
# not run it on every push; see scripts/ci.sh.
set -euo pipefail
ref="${1:-HEAD}"
shift || true
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'chmod -R u+w "$tmp" 2>/dev/null; rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$ref" | tar -x -C "$tmp/base"
mutations="$tmp/base/internal/analysis/testdata/mutations"

# The two tests that run the analyzers over the tree belong to the analyzer
# tier, not to go test.
self='^(TestAnnotatedTreeIsClean|TestVetCodeClean)$'

# tier <name> <log>: run one tier in the current copy; 0 = passed.
tier() {
	case "$1" in
	vet) go vet ./... ;;
	test) go test -count=1 -timeout 300s -skip "$self" ./... ;;
	race) go test -race -count=1 -timeout 600s -skip "$self" ./... ;;
	sim) timeout 1200 make -s sim ;;
	chaos) timeout 1200 make -s chaos ;;
	esac >"$2" 2>&1
}

# evidence <log>: the first line that says why a tier failed.
evidence() {
	grep -m1 -E -e '--- FAIL|^panic:|fatal error|DATA RACE|^vet:|\.go:[0-9]+:[0-9]+: |timed out|^FAIL' "$1" |
		sed -e 's/|/\\|/g' -e 's/^[[:space:]]*//' | cut -c1-110
}

# kept lists the analyzers that are the sole catcher of some row so far.
kept=""

# run <copy> <name> <analyzer>: one table row.
run() {
	local dir="$1" name="$2" own="$3" found caught="—" why="" sole=no
	(
		cd "$dir"
		go build ./... >"$tmp/build.log" 2>&1
	) || {
		echo "| $name | (does not build) | | | |"
		return
	}
	found=$(cd "$dir" && go run ./cmd/sqlcm-vet -code . 2>&1 |
		sed -n -E 's/^[^ ]+ \[([a-z]+)\] .*/\1/p' | sort -u | paste -sd, -) || true
	for t in vet test race sim chaos; do
		# A tier catches the mutation when it fails twice in a row: timing-
		# sensitive tests can fail once on a loaded host.
		if ! (cd "$dir" && tier "$t" "$tmp/$t.log") && ! (cd "$dir" && tier "$t" "$tmp/$t.again.log"); then
			caught="$t"
			why="$(evidence "$tmp/$t.log")"
			break
		fi
	done
	if [ -z "$own" ]; then
		sole=—
	elif [ "$found" = "$own" ] && [ "$caught" = "—" ]; then
		sole=yes
		kept="$kept $own"
	fi
	echo "| $name | ${found:-—} | $caught | ${why:-} | $sole |"
}

echo "| mutation | analyzers reporting | first other tier | evidence | sole catcher |"
echo "|---|---|---|---|---|"
run "$tmp/base" "(none)" ""
for patch in "$mutations"/*.patch; do
	name="$(basename "$patch" .patch)"
	if [ "$#" -gt 0 ] && ! printf '%s\n' "$@" | grep -qx "$name"; then
		continue
	fi
	rm -rf "$tmp/m"
	cp -a "$tmp/base" "$tmp/m"
	if ! (cd "$tmp/m" && git apply "$patch"); then
		echo "| $name | (does not apply) | | | |"
		continue
	fi
	run "$tmp/m" "$name" "${name%-*}"
done
if [ "$#" -eq 0 ]; then
	idle=$(cd "$tmp/base" && go run ./cmd/sqlcm-vet -analyzers | awk '{print $1}' |
		grep -vxF -f <(printf '%s\n' $kept) | paste -sd' ' -) || true
	echo
	echo "sole catcher of no row: ${idle:-none}"
fi
