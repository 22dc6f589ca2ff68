#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (a module
# of its own, so the repository's go.mod stays untouched) into
# .bench_build/ inside the checkout and runs it with the given flags.
# The Go build cache lives under .bench_build/ as well, so a run reads
# and writes nothing outside its checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
mkdir -p "$root/.bench_build"
(cd "$root/bench" && go build -o "$root/.bench_build/lubench" .)
cd "$root"
exec "$root/.bench_build/lubench" "$@"
