#!/usr/bin/env bash
# Builds rfidcleand and the benchmark from this checkout, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload query_read --seed 1 --seconds 10 --trace 0
#
# Every build artefact, the Go build cache included, stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry in its default "local" mode every go command may fork a
# detached sidecar that outlives it; turning it off in the fresh config
# directory first means no go command below starts one.
go telemetry off
go build -o "$out/rfidcleand" ./cmd/rfidcleand >&2
(cd servebench && go build -o "$out/servebench" .) >&2
exec "$out/servebench" -daemon "$out/rfidcleand" -work "$out/work" "$@"
