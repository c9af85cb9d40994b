#!/usr/bin/env bash
# Builds the benchmark runner and the m3dd daemon from the checkout it is
# run in, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-quick --seed 42 --seconds 30 --trace 0
#
# Everything it builds or writes goes under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps its telemetry under the user config directory. With
# telemetry on (the default is "local") every go command may start a detached
# upload process that outlives this script, so the mode is set to off first,
# as `go telemetry off` would.
export XDG_CONFIG_HOME="$out/config"
mkdir -p "$GOTMPDIR" "$out/bin" "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/m3dd" ./cmd/m3dd
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -m3dd "$out/bin/m3dd" -out "$out/runs" -root "$root" "$@"
