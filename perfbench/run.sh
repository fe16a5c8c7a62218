#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it; every argument passes through:
#
#   bash perfbench/run.sh --workload sort --seed 1 --seconds 20 --trace 0
#
# The build cache, the go command's own state (GOPATH, telemetry), the
# binary, temp files (sort spill runs, spill pools) and trace files all stay
# under .bench_build at the checkout's root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -C "$here" -o "$out/bin/perfbench" .
cd "$root"
exec "$out/bin/perfbench" "$@"
