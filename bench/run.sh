#!/usr/bin/env bash
# Builds the benchmark inside the checkout (build cache and binary under
# .bench_build/, scratch files under bench/out/) and runs it.
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run
#   bash bench/run.sh [--reps R]        all workloads -> bench/out/result.json + traces
#   bash bench/run.sh compare OLD.json NEW.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
bin="$build/bench"
mkdir -p "$build/tmp"
# Everything the go command writes stays under .bench_build/: build cache,
# temp files, module cache and its own config/telemetry directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
# Rebuild when the binary is missing or older than any source it is made of.
if [ ! -x "$bin" ] || [ -n "$(find bench internal go.mod -newer "$bin" \( -name '*.go' -o -name go.mod \) -print -quit)" ]; then
	(cd bench && go build -o "$bin" .)
fi
BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
exec "$bin" "$@"
