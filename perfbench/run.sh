#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload archive-feedback --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

# The commit the numbers belong to, when the checkout is a git work tree.
PERFBENCH_COMMIT=unknown
if [ -e "$root/.git" ]; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		PERFBENCH_COMMIT="$PERFBENCH_COMMIT+dirty"
	fi
fi
export PERFBENCH_COMMIT

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-results" "$@"
