#!/usr/bin/env bash
# Build the rtv benchmark from this checkout's sources, then run it.
#
#   bash rtvbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The first run configures and builds into .bench_build/rtvbench (about a
# minute on 4 cores); later runs only check the build is up to date.  Build
# output goes to stderr, so the last line on stdout is always the result.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=.bench_build/rtvbench

if [[ ! -f "$build/Makefile" ]]; then
  cmake -S rtvbench -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j4 --target rtvbench >&2

# A relative work directory keeps the daemon's socket path short.
mkdir -p "$build/work"
exec "$build/rtvbench" "$@" --workdir "$build/work"
