#!/usr/bin/env bash
# Builds the served-diagnosis benchmark from this checkout's sources and
# runs it. From the repository root:
#
#   bash servebench/run.sh --workload scatter-q14 --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and Go's per-user config all live under
# .bench_build/ in the checkout, so a run writes nothing outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/config"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
if [ -d "$root/.git" ]; then
  SERVEBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
  export SERVEBENCH_COMMIT
fi
go build -C "$root/servebench" -o "$out/servebench" .
exec "$out/servebench" --root "$root" "$@"
