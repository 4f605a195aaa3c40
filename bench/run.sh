#!/bin/bash
# The one command of BENCHMARK.json:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It compiles the benchmark (a Go module of its own under bench/) and
# runs it from the root of the checkout; the benchmark then compiles
# cmd/seaserve from the same checkout. Everything either build writes —
# binaries, the Go build cache, temporary files — stays under
# .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
