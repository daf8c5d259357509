#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload inplace-churn --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the module cache all live under
# .bench_build at the root of the checkout, so nothing is read from or
# written to the user's home. Build output goes to stderr; the last line
# of stdout is the result JSON.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
