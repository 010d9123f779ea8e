#!/usr/bin/env bash
# Builds ocasd, ocas and the benchmark from the checkout this is run in, then
# runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload synth-mix --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/perfbench.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
go build -o "$out/ocasd" ./cmd/ocasd
go build -o "$out/ocas" ./cmd/ocas
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -ocasd "$out/ocasd" -ocas "$out/ocas" -work "$out/work" "$@"
