#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# This is BENCHMARK.json's command. Everything the build writes — the
# binary, Go's build cache, its scratch files and its telemetry counters
# (XDG_CONFIG_HOME) — stays in .bench_build/ at the root of the checkout, so a
# run touches nothing outside it. It fails, printing no result and before it
# starts anything, where the repository it measures is missing.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark/run.sh: no nephele module at $root (go.mod, internal/): nothing to measure" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# With telemetry on (the default, "local"), the go command forks a detached
# child that outlives it to tidy the counter files. Nothing this script starts
# may outlive it, so switch telemetry off where this go command looks.
echo off >"$build/config/go/telemetry/mode"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/nephele-benchmark" ./benchmark
exec "$build/nephele-benchmark" "$@"
