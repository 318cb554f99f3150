#!/usr/bin/env bash
# Entry point BENCHMARK.json names. Builds the benchmark (its own Go
# module in this directory) and runs it with every build artefact under
# <checkout>/.bench_build, so a run reads and writes only inside the
# checkout. Arguments are passed through; see main.go for the flags.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
