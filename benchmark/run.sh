#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#   bash benchmark/run.sh --workload serve_cold --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays inside the checkout: the
# Go build cache and the binary under .bench_build/, traces, reports and
# scratch directories under benchmark/out/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/rankbench" .
exec "$build/rankbench" "$@"
