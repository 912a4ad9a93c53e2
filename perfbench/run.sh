#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload remote-read --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# per-run files and traces all stay under $CARGO_TARGET_DIR if it is set,
# else under .bench_build.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -dir "$build" "$@"
