#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build, its Go cache and the binary live in .bench_build at the
# repository root, so a run reads and writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
